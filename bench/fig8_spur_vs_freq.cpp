// Figure 8: total spur power at fc +/- fnoise versus noise frequency for
// several tuning voltages, comparing the methodology prediction ("SIM") to
// the brute-force transient ("MEAS", the silicon stand-in).
//
// Paper: linear relation between spur power and log(fnoise) -- resistive
// coupling followed by FM -- with simulation matching measurement within
// 2 dB over 1-15 MHz.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "circuit/sources.hpp"
#include "core/classify.hpp"
#include "core/impact_model.hpp"
#include "numeric/vecops.hpp"
#include "obs/events.hpp"
#include "obs/parallel.hpp"
#include "testcases/vco.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace snim;
using testcases::VcoTestcase;

int main() {
    obs::init_live_from_env();
    printf("=== Figure 8: spur power at fc +/- fnoise vs noise frequency ===\n\n");

    const std::vector<double> vtunes{0.0, 0.9};
    const std::vector<double> f_pred{1e6, 2e6, 3e6, 5e6, 8e6, 15e6};
    const std::vector<double> f_meas{2e6, 5e6, 15e6};

    struct CornerOut {
        double fc = 0.0;
        double k_src = 0.0;
        std::vector<double> pred_dbm, left_dbc, right_dbc; // per f_pred point
        std::vector<double> meas_dbm; // NaN where fnoise is not in f_meas
    };
    std::vector<CornerOut> corners(vtunes.size());

    // The vtune corners are independent flows fanned out over SNIM_THREADS
    // workers, each rebuilding its own model.  All printing and CSV output
    // happens below, serially in vtune order, so stdout and the CSV are
    // bit-identical for every thread count.
    obs::parallel_tasks(0, vtunes.size(), [&](size_t ci) {
        auto vco = testcases::build_vco();
        auto model =
            testcases::build_model(std::move(vco), testcases::vco_flow_options());
        model.netlist.find_as<circuit::VSource>(VcoTestcase::kVtuneSource)
            ->set_waveform(circuit::Waveform::dc(vtunes[ci]));

        core::AnalyzerOptions aopt;
        aopt.osc = testcases::vco_osc_options();
        core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource,
                                      testcases::vco_noise_entries(), aopt);
        analyzer.calibrate();

        CornerOut& out = corners[ci];
        out.fc = analyzer.baseline().fc;
        out.k_src = analyzer.k_src();
        for (double fn : f_pred) {
            auto pred = analyzer.predict(fn);
            out.pred_dbm.push_back(pred.total_dbm());
            out.left_dbc.push_back(pred.left_dbc());
            out.right_dbc.push_back(pred.right_dbc());
            const bool measured =
                std::find(f_meas.begin(), f_meas.end(), fn) != f_meas.end();
            out.meas_dbm.push_back(measured
                                       ? analyzer.simulate(fn).total_dbm()
                                       : std::numeric_limits<double>::quiet_NaN());
        }
    });

    CsvWriter csv({"vtune", "fnoise_Hz", "pred_dbm", "meas_dbm"});
    AsciiPlot plot("Figure 8: total spur power vs fnoise", "fnoise [Hz]", "dBm");
    plot.set_log_x(true);
    double max_err = 0.0;

    for (size_t ci = 0; ci < vtunes.size(); ++ci) {
        const double vt = vtunes[ci];
        const CornerOut& out = corners[ci];
        printf("Vtune = %.1f V: fc = %.4f GHz, K_src = %.4g Hz/V\n", vt,
               out.fc / 1e9, out.k_src);

        Table t({"fnoise [MHz]", "SIM total [dBm]", "SIM L/R [dBc]", "MEAS total [dBm]",
                 "err [dB]"});
        PlotSeries sim{format("sim vt=%.1f", vt), {}, {}, vt == 0.0 ? '*' : '+'};
        PlotSeries meas{format("meas vt=%.1f", vt), {}, {}, vt == 0.0 ? 'o' : 'x'};
        for (size_t k = 0; k < f_pred.size(); ++k) {
            const double fn = f_pred[k];
            sim.x.push_back(fn);
            sim.y.push_back(out.pred_dbm[k]);

            std::string meas_cell = "-";
            std::string err_cell = "-";
            if (!std::isnan(out.meas_dbm[k])) {
                meas.x.push_back(fn);
                meas.y.push_back(out.meas_dbm[k]);
                const double err = out.pred_dbm[k] - out.meas_dbm[k];
                max_err = std::max(max_err, std::fabs(err));
                meas_cell = format("%.1f", out.meas_dbm[k]);
                err_cell = format("%+.1f", err);
                csv.add_row({vt, fn, out.pred_dbm[k], out.meas_dbm[k]});
            } else {
                csv.add_row(std::vector<std::string>{format("%g", vt), format("%g", fn),
                                                     format("%.2f", out.pred_dbm[k]),
                                                     ""});
            }
            t.add_row({format("%.1f", fn / 1e6), format("%.1f", out.pred_dbm[k]),
                       format("%.1f/%.1f", out.left_dbc[k], out.right_dbc[k]), meas_cell,
                       err_cell});
        }
        t.print();

        const double slope = core::db_slope_per_decade(f_pred, out.pred_dbm);
        printf("spur-power slope = %.1f dB/decade (paper: -20, resistive + FM)\n\n",
               slope);
        plot.add(sim);
        plot.add(meas);
    }
    // Include measured points only if both vtunes produced them.
    plot.print();
    csv.save("fig8_spur_vs_freq.csv");
    printf("max |SIM - MEAS| = %.1f dB (paper: <= 2 dB)\n", max_err);
    printf("wrote fig8_spur_vs_freq.csv\n");
    return 0;
}
