// Full methodology walk-through on the 3 GHz LC-tank VCO test chip:
// build the impact model from layout + technology (Figure 2 flow),
// calibrate the oscillator and the per-path sensitivities, then compare the
// paper-style prediction (eqs. 2-3) against a brute-force transient at
// 10 MHz and print the per-device contribution table.
//
// The walk-through runs as a snim_bench scenario: the harness reseeds the
// default Rng, times the run, and leaves the full obs registry snapshot
// (phase tree + solver counters) readable afterwards.  The prediction /
// transient agreement is recorded as an accuracy metric against the paper's
// 2 dB claim and gates the exit status.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "circuit/sources.hpp"
#include "core/contribution.hpp"
#include "obs/bench.hpp"
#include "obs/events.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/vcd.hpp"
#include "sim/transient.hpp"
#include "testcases/vco.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace snim;

namespace {

void walk_through(obs::ScenarioContext& ctx) {
    printf("== building the VCO impact model (Figure 2 flow) ==\n");
    auto vco = testcases::build_vco();
    auto model = testcases::build_model(std::move(vco), testcases::vco_flow_options());
    printf("  substrate: %zu mesh nodes -> %zu ports (%.2f s)\n", model.mesh_nodes,
           model.substrate.port_names.size(), model.substrate_seconds);
    const auto* gnd = model.wire_stats_for("vgnd");
    if (gnd)
        printf("  ground net: %.1f squares of wiring, %.3g F to substrate\n",
               gnd->resistance_squares, gnd->capacitance_total);
    printf("  full model: %zu devices, %zu nodes\n", model.netlist.device_count(),
           model.netlist.node_count());

    core::AnalyzerOptions aopt;
    aopt.osc = testcases::vco_osc_options();
    core::ImpactAnalyzer analyzer(model, testcases::VcoTestcase::kNoiseSource,
                                  testcases::vco_noise_entries(), aopt);

    printf("\n== calibration ==\n");
    analyzer.calibrate();
    const auto& base = analyzer.baseline();
    printf("  fc = %.4f GHz, tank amplitude = %.3f V\n", base.fc / 1e9, base.amplitude);
    printf("  K_src = %.5g Hz/V (DC path sensitivity)\n", analyzer.k_src());

    analyzer.calibrate_paths();

    const double fn = 10e6;
    printf("\n== impact of a -5 dBm 10 MHz substrate tone ==\n");
    auto pred = analyzer.predict(fn);
    Table t({"path", "spur dBc (alone)", "kind"});
    for (const auto& p : pred.parts)
        t.add_row({p.label, format("%.1f", p.spur_dbc(pred.carrier_amp)),
                   p.capacitive ? "capacitive (lever x H)" : "resistive (DC)"});
    t.print();
    printf("  prediction: left %.1f dBc, right %.1f dBc (freq dev %.4g Hz)\n",
           pred.left_dbc(), pred.right_dbc(), pred.freq_dev);

    auto meas = analyzer.simulate(fn);
    printf("  transient : left %.1f dBc, right %.1f dBc (freq dev %.4g Hz)\n",
           meas.left_dbc(), meas.right_dbc(), meas.freq_dev);
    printf("  agreement : left %+.1f dB, right %+.1f dB\n",
           pred.left_dbc() - meas.left_dbc(), pred.right_dbc() - meas.right_dbc());

    obs::AccuracyMetric m;
    m.name = "prediction vs transient spur power";
    m.reference = "paper claim: within ~2 dB";
    m.tolerance_db = 2.0;
    m.points = 2;
    m.delta_db = std::max(std::abs(pred.left_dbc() - meas.left_dbc()),
                          std::abs(pred.right_dbc() - meas.right_dbc()));
    ctx.add_accuracy(std::move(m));

    // Ground bounce made visible: a short transient with the substrate tone
    // on, probing the non-ideal on-chip ground (the paper's key coupling
    // path: tap resistance x substrate current) next to the tank output.
    printf("\n== ground-bounce waveform (VCD export) ==\n");
    model.netlist.find_as<circuit::VSource>(testcases::VcoTestcase::kNoiseSource)
        ->set_waveform(circuit::Waveform::sin(0.0, core::kNoiseAmplitude, fn));
    sim::TranOptions topt;
    topt.dt = aopt.osc.dt;
    topt.tstop = 20e-9;
    auto bounce = sim::transient(
        model.netlist,
        {testcases::VcoTestcase::kGroundNode, testcases::VcoTestcase::kOutP}, topt);
    std::vector<obs::WaveSignal> waves;
    for (size_t p = 0; p < bounce.probe_names.size(); ++p) {
        obs::WaveSignal w;
        w.name = bounce.probe_names[p];
        w.unit = "V";
        w.time = bounce.time;
        w.value = bounce.waves[p];
        waves.push_back(std::move(w));
    }
    obs::write_vcd("vco_ground_bounce.vcd", waves);
    double bmin = bounce.waves[0][0], bmax = bmin;
    for (double v : bounce.waves[0]) {
        bmin = std::min(bmin, v);
        bmax = std::max(bmax, v);
    }
    printf("  wrote vco_ground_bounce.vcd: %s + %s, %zu samples\n",
           testcases::VcoTestcase::kGroundNode, testcases::VcoTestcase::kOutP,
           bounce.time.size());
    printf("  %s bounce: %.3g Vpp around %.4g V\n", testcases::VcoTestcase::kGroundNode,
           bmax - bmin, 0.5 * (bmax + bmin));
}

} // namespace

int main() {
    obs::init_live_from_env();
    set_log_level(LogLevel::Info);

    obs::Scenario s;
    s.name = "example/vco_substrate_impact";
    s.description = "methodology walk-through on the 3 GHz LC-tank VCO";
    s.kind = "flow";
    s.repeat = 1;
    s.warmup = 0;
    s.run = walk_through;
    const auto result = obs::run_scenario(s, obs::BenchOptions{});

    // run_scenario leaves the registry snapshot intact: the full phase tree
    // and solver counters of everything above.  The JSON form is in
    // result.registry (what `snim_bench --out` would emit).
    printf("\n== where the time went (obs registry) ==\n");
    printf("  extraction  : %.2f s substrate + %.2f s interconnect\n",
           obs::phase_seconds("flow/substrate_extract"),
           obs::phase_seconds("flow/interconnect_extract"));
    printf("  transient   : %.2f s over %llu steps, %llu Newton iterations\n",
           obs::phase_seconds("sim/transient"),
           static_cast<unsigned long long>(obs::counter_value("sim/transient/steps")),
           static_cast<unsigned long long>(obs::phase_calls("sim/transient/newton")));
    printf("  sparse LU   : %llu factorizations, %.2f s\n",
           static_cast<unsigned long long>(obs::phase_calls("numeric/lu_factor")),
           obs::phase_seconds("numeric/lu_factor"));
    printf("  total       : %.2f s wall\n", result.runtime.median_s);

    for (const auto& m : result.accuracy)
        printf("  accuracy    : %s = %.2f dB (tolerance %.1f dB) %s\n",
               m.name.c_str(), m.delta_db, m.tolerance_db,
               m.pass() ? "ok" : "FAIL");

    const auto verdicts = obs::accuracy_verdicts({result});
    return obs::gate_passes(verdicts) ? 0 : 1;
}
