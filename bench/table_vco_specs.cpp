// Section 4 table: the VCO's headline specifications -- tuning curve
// (small-signal tank resonance vs Vtune), KVCO, core current and tank Q.
// Resonance-based, so it runs in seconds (no oscillator transients).
#include <cstdio>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "numeric/vecops.hpp"
#include "obs/events.hpp"
#include "rf/phase_noise.hpp"
#include "sim/ac.hpp"
#include "sim/op.hpp"
#include "testcases/vco.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace snim;
using testcases::VcoTestcase;

namespace {

/// Tank resonance frequency and loaded Q from a differential AC sweep.
std::pair<double, double> resonance(circuit::Netlist& nl,
                                    const std::vector<double>& xop) {
    std::vector<double> freqs = linspace(2.0e9, 4.0e9, 161);
    auto ac = sim::ac_sweep(nl, freqs, xop);
    std::vector<double> mag;
    const auto op_ = nl.existing_node("outp");
    const auto on_ = nl.existing_node("outn");
    for (size_t k = 0; k < freqs.size(); ++k)
        mag.push_back(std::abs(ac.at(k, op_) - ac.at(k, on_)));
    size_t kmax = 0;
    for (size_t k = 1; k < mag.size(); ++k)
        if (mag[k] > mag[kmax]) kmax = k;
    double q = 0.0;
    try {
        q = rf::q_from_resonance(freqs, mag);
    } catch (const Error&) {
        q = 0.0; // peak at the sweep edge
    }
    return {freqs[kmax], q};
}

} // namespace

int main() {
    obs::init_live_from_env();
    printf("=== Section 4: VCO specifications (tuning curve, Q, current) ===\n\n");

    auto vco = testcases::build_vco();
    auto model = testcases::build_model(std::move(vco), testcases::vco_flow_options());
    auto& nl = model.netlist;
    nl.add<circuit::ISource>("probe", nl.existing_node("outn"),
                             nl.existing_node("outp"), circuit::Waveform::dc(0.0),
                             circuit::AcSpec{1e-3, 0.0});
    auto* vt = nl.find_as<circuit::VSource>(VcoTestcase::kVtuneSource);
    auto* vdd = nl.find_as<circuit::VSource>("vddsrc");

    Table t({"Vtune [V]", "f_res [GHz]", "loaded Q", "core I [mA]"});
    CsvWriter csv({"vtune", "fres_GHz", "q", "icore_mA"});
    std::vector<double> vts = linspace(0.0, 1.8, 7);
    std::vector<double> fres;
    for (double v : vts) {
        vt->set_waveform(circuit::Waveform::dc(v));
        auto xop = sim::operating_point(nl);
        auto [f0, q] = resonance(nl, xop);
        fres.push_back(f0);
        const double icore = vdd->current(xop);
        t.add_row({format("%.2f", v), format("%.3f", f0 / 1e9), format("%.1f", q),
                   format("%.2f", icore * 1e3)});
        csv.add_row({v, f0 / 1e9, q, icore * 1e3});
    }
    t.print();
    csv.save("table_vco_specs.csv");

    const double range = fres.back() - fres.front();
    printf("\ntuning range: %.3f - %.3f GHz (%.0f MHz); average KVCO = %.0f MHz/V\n",
           fres.front() / 1e9, fres.back() / 1e9, std::fabs(range) / 1e6,
           std::fabs(range) / 1.8 / 1e6);
    printf("paper: fc ~ 3 GHz, 5 mA core at 1.8 V, -100 dBc/Hz @ 100 kHz\n");
    printf("wrote table_vco_specs.csv\n");
    return 0;
}
