// Figure 7: power spectrum at the VCO output in the presence of a -5 dBm
// 10 MHz substrate tone -- spurs at fc +/- fnoise on both sides of the
// local oscillator, plus the VCO headline specs of Section 4 (fc ~ 3 GHz,
// core current ~ 5 mA at 1.8 V, phase noise ~ -100 dBc/Hz @ 100 kHz).
#include <cstdio>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "dsp/spectrum.hpp"
#include "obs/events.hpp"
#include "rf/phase_noise.hpp"
#include "rf/spur.hpp"
#include "sim/ac.hpp"
#include "sim/op.hpp"
#include "testcases/vco.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace snim;
using testcases::VcoTestcase;

int main() {
    obs::init_live_from_env();
    printf("=== Figure 7: VCO output spectrum with a -5 dBm 10 MHz substrate tone ===\n\n");

    auto vco = testcases::build_vco();
    auto model = testcases::build_model(std::move(vco), testcases::vco_flow_options());
    auto& nl = model.netlist;

    // --- headline specs (Section 4) --------------------------------------
    // Core current from the DC operating point: current delivered by vddsrc.
    auto xop = sim::operating_point(nl);
    auto* vdd = nl.find_as<circuit::VSource>("vddsrc");
    const double icore = vdd->current(xop);

    const double fn = 10e6;
    nl.find_as<circuit::VSource>(VcoTestcase::kNoiseSource)
        ->set_waveform(circuit::Waveform::sin(0.0, 0.356, fn));

    rf::OscOptions osc = testcases::vco_osc_options();
    osc.capture = 1.0e-6; // 10 noise periods for a clean FFT picture
    auto cap = rf::capture_oscillator(nl, osc);

    printf("VCO: fc = %.4f GHz (paper: ~3 GHz), tank amplitude %.2f V\n",
           cap.fc / 1e9, cap.amplitude);
    printf("     core current = %.2f mA at 1.8 V (paper: 5 mA)\n", icore * 1e3);

    // Tank Q from an AC sweep for the Leeson phase-noise estimate.
    {
        auto xop2 = sim::operating_point(nl);
        auto* ltank = nl.find_as<circuit::Inductor>("ltank");
        const double q_ind =
            units::kTwoPi * cap.fc * ltank->inductance() / ltank->series_res();
        rf::LeesonInputs li;
        li.fc = cap.fc;
        li.q_loaded = 0.6 * q_ind; // loaded by devices and fixed-cap losses
        li.psig_dbm = units::dbm_from_amplitude(cap.amplitude);
        const double pn = rf::leeson_phase_noise(li, 100e3);
        printf("     phase noise (Leeson, Q=%.1f) = %.1f dBc/Hz @ 100 kHz "
               "(paper: -100 dBc/Hz)\n\n",
               li.q_loaded, pn);
        (void)xop2;
    }

    // --- spur measurement (both estimators) -------------------------------
    auto demod = rf::measure_spur(cap, fn);
    auto spectral = rf::measure_spur_spectral(cap, fn);

    Table t({"tone", "freq [GHz]", "demod [dBc]", "spectral [dBc]"});
    t.add_row({"carrier", format("%.4f", cap.fc / 1e9), "0.0", "0.0"});
    t.add_row({"left spur (fc-fn)", format("%.4f", (cap.fc - fn) / 1e9),
               format("%.1f", demod.left_dbc()), format("%.1f", spectral.left_dbc())});
    t.add_row({"right spur (fc+fn)", format("%.4f", (cap.fc + fn) / 1e9),
               format("%.1f", demod.right_dbc()), format("%.1f", spectral.right_dbc())});
    t.print();
    printf("\nFM freq deviation %.4g Hz; left/right asymmetry %.2f dB "
           "(paper: 'a small difference ... caused by negligible AM')\n",
           demod.freq_dev, demod.right_dbc() - demod.left_dbc());

    // --- the Figure-7 picture: FFT spectrum around the carrier ------------
    auto spec = dsp::amplitude_spectrum(cap.wave, cap.fs);
    CsvWriter csv({"freq_GHz", "dbc"});
    AsciiPlot plot("Figure 7: spectrum around the carrier", "f [GHz]", "dBc");
    PlotSeries series{"spectrum", {}, {}, '*'};
    for (size_t k = 0; k < spec.freq.size(); ++k) {
        if (std::fabs(spec.freq[k] - cap.fc) > 4 * fn) continue;
        const double dbc = units::db20(std::max(spec.amp[k], 1e-12) / cap.amplitude);
        csv.add_row({spec.freq[k] / 1e9, dbc});
        if (dbc > -90) {
            series.x.push_back(spec.freq[k] / 1e9);
            series.y.push_back(dbc);
        }
    }
    plot.add(series);
    plot.print();
    csv.save("fig7_spectrum.csv");
    printf("\nwrote fig7_spectrum.csv\n");
    return 0;
}
