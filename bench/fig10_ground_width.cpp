// Figure 10: impact on (1) the real VCO and (2) a layout with the ground
// interconnect resistance halved (lines widened by a factor of two).
//
// Paper: an ideal halving would give 6 dB; the re-extracted widened layout
// yields ~4.5 dB because widening also changes coupling capacitance and the
// geometry.  The classical-flow ablation (ideal, zero-resistance
// interconnect) is included as the paper's implicit baseline comparison.
#include <cstdio>

#include "circuit/sources.hpp"
#include "core/impact_model.hpp"
#include "numeric/vecops.hpp"
#include "obs/events.hpp"
#include "obs/parallel.hpp"
#include "testcases/vco.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace snim;
using testcases::VcoTestcase;

namespace {

struct Variant {
    const char* name;
    double strap_width;
    bool ideal_interconnect;
};

} // namespace

int main() {
    obs::init_live_from_env();
    printf("=== Figure 10: impact vs ground-interconnect resistance ===\n\n");

    const std::vector<double> freqs = logspace(1e6, 15e6, 5);
    const Variant variants[] = {
        {"real VCO", 1.0, false},
        {"ground lines widened 2x", 2.0, false},
        {"ideal interconnect (classical flow)", 1.0, true},
    };
    constexpr size_t kVariants = std::size(variants);

    // Each variant is an independent re-extraction + calibration, fanned out
    // over SNIM_THREADS workers; printing and the CSV stay serial below, in
    // declaration order, so output is bit-identical for every thread count.
    std::vector<std::vector<double>> series_dbm(kVariants);
    std::vector<double> wire_squares(kVariants, 0.0);
    std::vector<double> k_src(kVariants, 0.0);
    obs::parallel_tasks(0, kVariants, [&](size_t ci) {
        const auto& variant = variants[ci];
        testcases::VcoOptions vopt;
        vopt.ground_strap_width = variant.strap_width;
        auto vco = testcases::build_vco(vopt);
        auto fo = testcases::vco_flow_options();
        fo.interconnect.extract_resistance = !variant.ideal_interconnect;
        auto model = testcases::build_model(std::move(vco), fo);
        const auto* st = model.wire_stats_for("vgnd");
        wire_squares[ci] = st ? st->resistance_squares : 0.0;

        core::AnalyzerOptions aopt;
        aopt.osc = testcases::vco_osc_options();
        core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource,
                                      testcases::vco_noise_entries(), aopt);
        analyzer.calibrate();
        k_src[ci] = analyzer.k_src();

        for (double fn : freqs) series_dbm[ci].push_back(analyzer.predict(fn).total_dbm());
    });

    CsvWriter csv({"variant", "fnoise_Hz", "total_dbm"});
    AsciiPlot plot("Figure 10: spur power, real vs widened ground lines",
                   "fnoise [Hz]", "dBm");
    plot.set_log_x(true);

    const char markers[] = {'*', 'o', 'x'};
    for (size_t ci = 0; ci < kVariants; ++ci) {
        const auto& variant = variants[ci];
        for (size_t k = 0; k < freqs.size(); ++k)
            csv.add_row(std::vector<std::string>{variant.name, format("%g", freqs[k]),
                                                 format("%.2f", series_dbm[ci][k])});
        plot.add({variant.name, freqs, series_dbm[ci], markers[ci % 3]});
        printf("%-38s K_src = %9.4g Hz/V, ground wiring %.0f squares\n", variant.name,
               k_src[ci], wire_squares[ci]);
    }

    Table t({"fnoise [MHz]", "real [dBm]", "widened 2x [dBm]", "delta [dB]",
             "ideal wire [dBm]"});
    double avg_delta = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
        const double delta = series_dbm[0][k] - series_dbm[1][k];
        avg_delta += delta;
        t.add_row({format("%.1f", freqs[k] / 1e6), format("%.1f", series_dbm[0][k]),
                   format("%.1f", series_dbm[1][k]), format("%+.1f", delta),
                   format("%.1f", series_dbm[2][k])});
    }
    avg_delta /= static_cast<double>(freqs.size());
    printf("\n");
    t.print();
    printf("\naverage reduction from widening the ground lines 2x: %.1f dB "
           "(paper: ~4.5 dB, ideal halving 6 dB)\n", avg_delta);
    plot.print();
    csv.save("fig10_ground_width.csv");
    printf("wrote fig10_ground_width.csv\n");
    return 0;
}
