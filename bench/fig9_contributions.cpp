// Figure 9: contributions of the separate devices in the VCO to the overall
// impact (Vtune = 0 V, Pnoise = -5 dBm), versus noise frequency.
//
// Paper findings reproduced here:
//   * the on-chip ground interconnect dominates;
//   * the NMOS back-gate path is also resistive+FM (-20 dB/dec) but well
//     below the ground path (paper: ~20 dB);
//   * the inductor path is capacitive coupling followed by FM -> flat with
//     frequency;
//   * PMOS / varactor n-well paths are lowest.
#include <cstdio>

#include "circuit/sources.hpp"
#include "core/contribution.hpp"
#include "numeric/vecops.hpp"
#include "obs/events.hpp"
#include "testcases/vco.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace snim;
using testcases::VcoTestcase;

int main() {
    obs::init_live_from_env();
    printf("=== Figure 9: per-device contributions (Vtune = 0, -5 dBm) ===\n\n");

    testcases::VcoOptions vopt;
    vopt.vtune = 0.0;
    auto vco = testcases::build_vco(vopt);
    auto model = testcases::build_model(std::move(vco), testcases::vco_flow_options());

    core::AnalyzerOptions aopt;
    aopt.osc = testcases::vco_osc_options();
    core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource,
                                  testcases::vco_noise_entries(), aopt);
    analyzer.calibrate();
    analyzer.calibrate_paths();

    const auto freqs = logspace(1e6, 15e6, 6);
    auto report = core::contribution_sweep(analyzer, freqs);

    std::vector<std::string> headers{"fnoise [MHz]"};
    for (const auto& e : report.entries) headers.push_back(e.label + " [dBc]");
    Table t(headers);
    CsvWriter csv(headers);
    for (size_t k = 0; k < freqs.size(); ++k) {
        std::vector<std::string> row{format("%.1f", freqs[k] / 1e6)};
        std::vector<std::string> crow{format("%g", freqs[k])};
        for (const auto& e : report.entries) {
            row.push_back(format("%.1f", e.spur_dbc[k]));
            crow.push_back(format("%.2f", e.spur_dbc[k]));
        }
        t.add_row(row);
        csv.add_row(crow);
    }
    t.print();
    csv.save("fig9_contributions.csv");

    printf("\nmechanism classification per path:\n");
    for (const auto& e : report.entries)
        printf("  %-20s %s\n", e.label.c_str(), e.mechanism.describe().c_str());

    const auto& dom = report.dominant();
    printf("\ndominant path: %s (paper: ground interconnect)\n", dom.label.c_str());
    printf("margin over the runner-up: %.1f dB (paper: ~20 dB over the back-gate)\n",
           report.dominance_margin_db());

    AsciiPlot plot("Figure 9: per-device spur contributions", "fnoise [Hz]", "dBc");
    plot.set_log_x(true);
    const char markers[] = {'*', 'o', '+', 'x', '#'};
    for (size_t i = 0; i < report.entries.size(); ++i) {
        PlotSeries s{report.entries[i].label, report.fnoise, report.entries[i].spur_dbc,
                     markers[i % 5]};
        plot.add(s);
    }
    plot.print();
    printf("wrote fig9_contributions.csv\n");
    return 0;
}
