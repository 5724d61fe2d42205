// The snim_bench scenario bodies.
//
// Figure scenarios wrap the same flow entry points the one-off fig*.cpp
// benches use and attach accuracy metrics: dB deltas of the freshly computed
// series against the paper-reference CSVs at the repo root, with the paper's
// own tolerances (2 dB for the VCO figures, 1 dB for the NMOS structure).
// Under --quick the sweeps are subsampled (the computed points stay on the
// exact full-sweep grid so they land on reference keys); the model, mesh and
// solver settings are never trimmed — accuracy deltas must stay comparable
// between quick and full runs.
//
// Kernel scenarios isolate the numeric hot paths (sparse LU, CG substrate
// reduction, transient stepping, assembly, FFT) with runtime-only
// telemetry; their random inputs come from the default-seeded Rng so
// `snim_bench --seed` makes runs bit-identical.
#include "scenarios.hpp"

#include <cmath>
#include <cstring>

#include "circuit/mosfet.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "core/accuracy.hpp"
#include "core/contribution.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/vecops.hpp"
#include "obs/bench.hpp"
#include "obs/trace.hpp"
#include "rf/phase_noise.hpp"
#include "sim/ac.hpp"
#include "sim/assembly.hpp"
#include "sim/mna.hpp"
#include "sim/op.hpp"
#include "sim/transfer.hpp"
#include "sim/transient.hpp"
#include "substrate/extractor.hpp"
#include "tech/doping.hpp"
#include "tech/generic180.hpp"
#include "testcases/nmos_structure.hpp"
#include "testcases/vco.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace snim::bench_scenarios {

namespace {

using testcases::NmosStructure;
using testcases::VcoTestcase;

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kAssembleIncrementalPhase("bench/assemble_incremental");
const obs::Phase kAssembleFullPhase("bench/assemble_full");

/// Indices 0, n-1 and an even spread in between: quick runs stay on the
/// full sweep's grid so every computed point matches a reference key.
std::vector<double> subsample(const std::vector<double>& full, size_t count) {
    if (count >= full.size()) return full;
    std::vector<double> out;
    for (size_t i = 0; i < count; ++i)
        out.push_back(full[i * (full.size() - 1) / (count - 1)]);
    return out;
}

core::FlowOptions nmos_flow_options() {
    core::FlowOptions fo;
    fo.substrate.mesh.focus = geom::Rect(-20, -20, 50, 30);
    fo.substrate.mesh.fine_pitch = 3.0;
    fo.substrate.mesh.margin = 40.0;
    return fo;
}

// --- figure scenarios -----------------------------------------------------

void run_fig3(obs::ScenarioContext& ctx) {
    auto structure = testcases::build_nmos_structure();
    auto model = testcases::build_model(std::move(structure), nmos_flow_options());
    auto& nl = model.netlist;
    auto* vg = nl.find_as<circuit::VSource>(NmosStructure::kGateSource);
    auto* m1 = nl.find_as<circuit::Mosfet>(NmosStructure::kMosfet);

    const double fprobe = 5e6;
    const auto biases = subsample(linspace(0.7, 1.6, 10), ctx.quick ? 4 : 10);
    std::vector<double> sim_db, hand_db;
    for (double bias : biases) {
        vg->set_waveform(circuit::Waveform::dc(bias));
        auto xop = sim::operating_point(nl);
        const auto ss = m1->small_signal(xop);
        auto tr = sim::transfer_multi(
            nl, NmosStructure::kNoiseSource,
            {NmosStructure::kOut, NmosStructure::kBulk, NmosStructure::kSourceNode},
            {fprobe}, xop);
        const auto h_out = tr[0].h[0];
        const auto h_vbs = tr[1].h[0] - tr[2].h[0];
        sim_db.push_back(units::db20(std::abs(h_out)));
        hand_db.push_back(units::db20(std::abs(h_vbs) * ss.gmb / ss.gds));
    }
    ctx.add_accuracy(core::reference_delta(
        "substrate->output transfer sim_db",
        core::load_reference_series("fig3_nmos_transfer.csv", "vg", "sim_db"),
        "fig3_nmos_transfer.csv", 1.0, biases, sim_db));
    ctx.add_accuracy(core::paired_delta("simulation vs hand calculation",
                                        "paper claim: <= 1 dB", 1.0, hand_db, sim_db));
}

void run_vco_specs(obs::ScenarioContext& ctx) {
    auto vco = testcases::build_vco();
    auto model = testcases::build_model(std::move(vco), testcases::vco_flow_options());
    auto& nl = model.netlist;
    nl.add<circuit::ISource>("probe", nl.existing_node("outn"), nl.existing_node("outp"),
                             circuit::Waveform::dc(0.0), circuit::AcSpec{1e-3, 0.0});
    auto* vt = nl.find_as<circuit::VSource>(VcoTestcase::kVtuneSource);

    const auto vtunes = subsample(linspace(0.0, 1.8, 7), ctx.quick ? 3 : 7);
    std::vector<double> fres_db;
    for (double v : vtunes) {
        vt->set_waveform(circuit::Waveform::dc(v));
        auto xop = sim::operating_point(nl);
        const auto freqs = linspace(2.0e9, 4.0e9, 161);
        auto ac = sim::ac_sweep(nl, freqs, xop);
        const auto op_ = nl.existing_node("outp");
        const auto on_ = nl.existing_node("outn");
        size_t kmax = 0;
        double best = 0.0;
        for (size_t k = 0; k < freqs.size(); ++k) {
            const double mag = std::abs(ac.at(k, op_) - ac.at(k, on_));
            if (mag > best) {
                best = mag;
                kmax = k;
            }
        }
        fres_db.push_back(units::db20(freqs[kmax] / 1e9));
    }
    auto ref = core::load_reference_series("table_vco_specs.csv", "vtune", "fres_GHz");
    for (auto& v : ref.values) v = units::db20(v);
    ctx.add_accuracy(core::reference_delta("tank resonance 20log10(f_res/1GHz)",
                                           ref, "table_vco_specs.csv", 2.0, vtunes,
                                           fres_db));
}

void run_fig7(obs::ScenarioContext& ctx) {
    auto vco = testcases::build_vco();
    auto model = testcases::build_model(std::move(vco), testcases::vco_flow_options());
    auto& nl = model.netlist;

    const double fn = 10e6;
    nl.find_as<circuit::VSource>(VcoTestcase::kNoiseSource)
        ->set_waveform(circuit::Waveform::sin(0.0, 0.356, fn));
    rf::OscOptions osc = testcases::vco_osc_options();
    osc.capture = 1.0e-6; // must equal the reference run: identical FFT bins
    osc.checkpoint.tag = "fig7";
    auto cap = rf::capture_oscillator(nl, osc);

    if (!ctx.wave_dir.empty()) {
        // The raw capture rides into the wave dump so kill-and-resume checks
        // can bit-compare the probe waveform, not just the derived metrics.
        obs::WaveSignal probe;
        probe.name = "vco_diff";
        probe.unit = "V";
        probe.time.resize(cap.wave.size());
        for (size_t k = 0; k < cap.wave.size(); ++k)
            probe.time[k] = osc.settle + static_cast<double>(k) / cap.fs;
        probe.value = cap.wave;
        ctx.dump_waves("fig7_vco_spectrum.probes", {probe});
    }

    auto spec = dsp::amplitude_spectrum(cap.wave, cap.fs);
    std::vector<double> keys, dbc;
    for (size_t k = 0; k < spec.freq.size(); ++k) {
        if (std::fabs(spec.freq[k] - cap.fc) > 4 * fn) continue;
        const double v = units::db20(std::max(spec.amp[k], 1e-12) / cap.amplitude);
        if (v <= -80.0) continue; // skip noise-floor bins: nulls are not figures
        keys.push_back(spec.freq[k] / 1e9);
        dbc.push_back(v);
    }
    ctx.add_accuracy(core::reference_delta(
        "spectrum dBc per FFT bin (> -80 dBc)",
        core::load_reference_series("fig7_spectrum.csv", "freq_GHz", "dbc"),
        "fig7_spectrum.csv", 2.0, keys, dbc, 1e-4));
    (void)ctx;
}

void run_fig8(obs::ScenarioContext& ctx) {
    const std::vector<double> vtunes = ctx.quick ? std::vector<double>{0.9}
                                                 : std::vector<double>{0.0, 0.9};
    const std::vector<double> f_pred{1e6, 2e6, 3e6, 5e6, 8e6, 15e6};
    // Each vtune point is an independent sweep corner: a solver failure in
    // one skips (and annotates) that corner instead of losing the whole
    // figure.  Corners fan out over ctx.threads workers, each rebuilding
    // its own flow so nothing shared is mutated; metrics merge back in
    // vtune order, bit-identical for every thread count.
    ctx.run_corners(vtunes.size(), [&](obs::ScenarioContext& corner, size_t ci) {
        const double vt = vtunes[ci];
        const std::string vt_label = format("%g", vt);
        corner.guard_corner(format("fig8 vtune=%s", vt_label.c_str()), [&] {
            auto vco = testcases::build_vco();
            auto model =
                testcases::build_model(std::move(vco), testcases::vco_flow_options());
            model.netlist.find_as<circuit::VSource>(VcoTestcase::kVtuneSource)
                ->set_waveform(circuit::Waveform::dc(vt));
            core::AnalyzerOptions aopt;
            aopt.osc = testcases::vco_osc_options();
            // Per-corner checkpoint tag: a killed fig8 sweep resumes at the
            // first corner whose snapshots are incomplete.
            aopt.osc.checkpoint.tag = format("fig8_vt%s", vt_label.c_str());
            core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource,
                                          testcases::vco_noise_entries(), aopt);
            analyzer.calibrate();

            std::vector<double> pred_dbm;
            for (double f : f_pred) pred_dbm.push_back(analyzer.predict(f).total_dbm());
            corner.add_accuracy(core::reference_delta(
                format("prediction total dBm (vtune=%s)", vt_label.c_str()),
                core::load_reference_series("fig8_spur_vs_freq.csv", "fnoise_Hz",
                                            "pred_dbm", "vtune", vt_label),
                "fig8_spur_vs_freq.csv", 2.0, f_pred, pred_dbm));

            if (!corner.quick) {
                // The brute-force "measurement" stand-in at the cheapest
                // measured frequency; the full 2/5/15 MHz set is the fig8
                // bench's job.
                const double fmeas = 15e6;
                const double meas = analyzer.simulate(fmeas).total_dbm();
                corner.add_accuracy(core::reference_delta(
                    format("transient total dBm (vtune=%s)", vt_label.c_str()),
                    core::load_reference_series("fig8_spur_vs_freq.csv", "fnoise_Hz",
                                                "meas_dbm", "vtune", vt_label),
                    "fig8_spur_vs_freq.csv", 2.0, {fmeas}, {meas}));
            }
        });
    });
}

void run_fig9(obs::ScenarioContext& ctx) {
    testcases::VcoOptions vopt;
    vopt.vtune = 0.0;
    auto vco = testcases::build_vco(vopt);
    auto model = testcases::build_model(std::move(vco), testcases::vco_flow_options());

    auto entries = testcases::vco_noise_entries();
    // Quick: only the two dominant (resistive) paths.  Their leave-one-out
    // sensitivities are measured path by path, so dropping the minor entries
    // does not change the retained columns.
    if (ctx.quick) entries.resize(2);

    core::AnalyzerOptions aopt;
    aopt.osc = testcases::vco_osc_options();
    aopt.osc.checkpoint.tag = "fig9";
    core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource, entries, aopt);
    analyzer.calibrate();
    analyzer.calibrate_paths();

    const auto freqs = subsample(logspace(1e6, 15e6, 6), ctx.quick ? 2 : 6);
    auto report = core::contribution_sweep(analyzer, freqs);
    for (const auto& e : report.entries)
        ctx.add_accuracy(core::reference_delta(
            format("%s contribution dBc", e.label.c_str()),
            core::load_reference_series("fig9_contributions.csv", "fnoise [MHz]",
                                        e.label + " [dBc]"),
            "fig9_contributions.csv", 2.0, freqs, e.spur_dbc));
}

void run_fig10(obs::ScenarioContext& ctx) {
    struct Variant {
        const char* name;
        double strap_width;
        bool ideal_interconnect;
    };
    std::vector<Variant> variants{{"real VCO", 1.0, false},
                                  {"ground lines widened 2x", 2.0, false}};
    if (!ctx.quick)
        variants.push_back({"ideal interconnect (classical flow)", 1.0, true});

    const auto freqs = subsample(logspace(1e6, 15e6, 5), ctx.quick ? 2 : 5);
    // Each design variant rebuilds the full flow; a failed corner is
    // skipped and annotated, the remaining variants still land.  Variants
    // fan out over ctx.threads workers, merged back in declaration order.
    ctx.run_corners(variants.size(), [&](obs::ScenarioContext& corner, size_t ci) {
        const auto& variant = variants[ci];
        corner.guard_corner(format("fig10 %s", variant.name), [&] {
            testcases::VcoOptions vopt;
            vopt.ground_strap_width = variant.strap_width;
            auto vco = testcases::build_vco(vopt);
            auto fo = testcases::vco_flow_options();
            fo.interconnect.extract_resistance = !variant.ideal_interconnect;
            auto model = testcases::build_model(std::move(vco), fo);

            core::AnalyzerOptions aopt;
            aopt.osc = testcases::vco_osc_options();
            aopt.osc.checkpoint.tag = format("fig10_c%zu", ci);
            core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource,
                                          testcases::vco_noise_entries(), aopt);
            analyzer.calibrate();

            std::vector<double> dbm;
            for (double f : freqs) dbm.push_back(analyzer.predict(f).total_dbm());
            corner.add_accuracy(core::reference_delta(
                format("total dBm (%s)", variant.name),
                core::load_reference_series("fig10_ground_width.csv", "fnoise_Hz",
                                            "total_dbm", "variant", variant.name),
            "fig10_ground_width.csv", 2.0, freqs, dbm));
        });
    });
}

// --- kernel scenarios -----------------------------------------------------

void run_sparse_lu(obs::ScenarioContext&) {
    const size_t n = 1024;
    Rng rng; // default-seeded: --seed makes the system matrix reproducible
    Triplets<double> t(n);
    for (size_t i = 0; i < n; ++i) t.add(i, i, 5.0 + rng.uniform(0, 1));
    for (size_t i = 0; i < n; ++i)
        for (int k = 0; k < 4; ++k)
            t.add(i, static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
                  rng.uniform(-1, 1));
    SparseCSC<double> a(t);
    std::vector<double> b(n, 1.0);
    SparseLU<double> lu(a);
    volatile double sink = lu.solve(b)[0];
    (void)sink;
}

void run_substrate_cg(obs::ScenarioContext&) {
    substrate::ExtractOptions opt;
    opt.mesh.fine_pitch = 10.0;
    opt.mesh.focus = geom::Rect(0, 0, 200, 200);
    opt.mesh.margin = 50.0;
    std::vector<substrate::PortSpec> ports(2);
    ports[0].name = "a";
    ports[0].region.add(geom::Rect(10, 10, 30, 30));
    ports[1].name = "b";
    ports[1].region.add(geom::Rect(150, 150, 170, 170));
    auto model = substrate::extract_substrate(geom::Rect(0, 0, 200, 200),
                                              tech::DopingProfile::high_ohmic(), ports,
                                              opt);
    volatile size_t sink = model.mesh_node_count;
    (void)sink;
}

void run_transient_ladder(obs::ScenarioContext& ctx) {
    const int stages = 50;
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 1e9));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 10.0);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-12);
    }
    sim::TranOptions opt;
    opt.dt = 10e-12;
    opt.tstop = 10e-9; // 1000 steps
    opt.checkpoint.tag = "kernel_transient";
    auto res = sim::transient(nl, {format("n%d", stages)}, opt);
    if (!ctx.wave_dir.empty()) {
        obs::WaveSignal probe;
        probe.name = res.probe_names[0];
        probe.unit = "V";
        probe.time = res.time;
        probe.value = res.waves[0];
        ctx.dump_waves("kernel_transient.probes", {probe});
    }
    volatile double sink = res.waves[0].back();
    (void)sink;
}

void run_assemble_kernel(obs::ScenarioContext&) {
    // Shaped like the paper testcases: a long linear RC interconnect ladder
    // (the static majority) driven by a source, with a handful of MOSFETs
    // whose stamps move every Newton iteration.  Measures the full re-stamp
    // (`clear + assemble_tran`, phase bench/assemble_full) against the
    // incremental TranAssembler (phase bench/assemble_incremental) over the
    // same iterate sequence, raising if any pass is not bit-identical — the
    // kernel doubles as an integrity check of the overlay contract.
    const int stages = 40;
    circuit::Netlist nl;
    const tech::Technology t = tech::generic180();
    const tech::MosModelCard nch = t.mos_model("nch");
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 1e9));
    nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                             circuit::Waveform::dc(1.8));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 10.0);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-13);
    }
    for (int m = 0; m < 6; ++m) {
        // Gate taps spread along the ladder; drains loaded by vdd resistors.
        nl.add<circuit::Resistor>(format("rd%d", m), nl.node("vdd"),
                                  nl.node(format("d%d", m)), 1e3);
        nl.add<circuit::Mosfet>(format("m%d", m), nl.node(format("d%d", m)),
                                nl.node(format("n%d", 5 + 6 * m)), circuit::kGround,
                                circuit::kGround, nch, circuit::MosGeometry{});
    }
    nl.finalize();
    const size_t n = nl.unknown_count();

    circuit::RealStamper full(n);
    circuit::RealStamper inc(n);
    full.enable_compiled_assembly();
    inc.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, inc);

    circuit::TranParams tp;
    tp.dt = 10e-12;
    tp.order = 2;
    std::vector<double> x(n, 0.0);
    Rng rng;
    const int attempts = 400, iters = 3;
    for (int a = 0; a < attempts; ++a) {
        tp.time = (a + 1) * tp.dt;
        {
            obs::ScopedTimer t1(kAssembleIncrementalPhase);
            asmb.begin_attempt(x, tp);
        }
        for (int it = 0; it < iters; ++it) {
            for (size_t i = 0; i < n; ++i)
                x[i] = 0.9 * x[i] + 0.05 * rng.uniform(0, 1);
            {
                obs::ScopedTimer t1(kAssembleIncrementalPhase);
                asmb.assemble(x, tp);
            }
            {
                obs::ScopedTimer t2(kAssembleFullPhase);
                full.clear();
                sim::assemble_tran(nl, full, x, tp);
            }
            if (std::memcmp(inc.csc().values().data(), full.csc().values().data(),
                            inc.csc().values().size() * sizeof(double)) != 0 ||
                std::memcmp(inc.rhs().data(), full.rhs().data(),
                            n * sizeof(double)) != 0)
                raise("kernel/assemble: incremental assembly diverged from the "
                      "full pass at attempt %d iteration %d", a, it);
        }
        // Commit so companion stamps move between attempts like a real run.
        asmb.commit(x, tp);
    }
}

void run_fft(obs::ScenarioContext&) {
    const size_t n = 1 << 16;
    Rng rng;
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    auto spec = dsp::fft_real(x);
    volatile double sink = spec[0].real();
    (void)sink;
}

obs::Scenario figure(const char* name, const char* description,
                     void (*body)(obs::ScenarioContext&), const char* reference) {
    obs::Scenario s;
    s.name = name;
    s.description = description;
    s.kind = "figure";
    s.repeat = 1;
    s.warmup = 0;
    s.references = {reference};
    s.run = body;
    return s;
}

obs::Scenario kernel(const char* name, const char* description,
                     void (*body)(obs::ScenarioContext&), int repeat, int quick_repeat) {
    obs::Scenario s;
    s.name = name;
    s.description = description;
    s.kind = "kernel";
    s.repeat = repeat;
    s.quick_repeat = quick_repeat;
    s.warmup = 1;
    s.run = body;
    return s;
}

} // namespace

void register_builtin_scenarios() {
    using obs::register_scenario;
    register_scenario(figure("fig3_nmos_transfer",
                             "substrate -> NMOS output transfer vs bias (Figure 3)",
                             run_fig3, "fig3_nmos_transfer.csv"));
    register_scenario(figure("table_vco_specs",
                             "VCO tuning curve via AC tank resonance (Section 4)",
                             run_vco_specs, "table_vco_specs.csv"));
    register_scenario(figure("fig7_vco_spectrum",
                             "VCO output spectrum under a -5 dBm 10 MHz substrate tone",
                             run_fig7, "fig7_spectrum.csv"));
    register_scenario(figure("fig8_spur_vs_freq",
                             "spur power vs noise frequency, prediction vs transient",
                             run_fig8, "fig8_spur_vs_freq.csv"));
    register_scenario(figure("fig9_contributions",
                             "per-device contribution ranking (Figure 9)", run_fig9,
                             "fig9_contributions.csv"));
    register_scenario(figure("fig10_ground_width",
                             "impact vs ground interconnect resistance (Figure 10)",
                             run_fig10, "fig10_ground_width.csv"));
    register_scenario(kernel("kernel/sparse_lu",
                             "sparse LU factor+solve, 1024x1024 random system",
                             run_sparse_lu, 5, 3));
    register_scenario(kernel("kernel/substrate_cg",
                             "substrate extraction incl. CG reduction, 200x200 um",
                             run_substrate_cg, 3, 2));
    register_scenario(kernel("kernel/transient",
                             "transient stepping of a 50-stage RLC ladder (1000 steps)",
                             run_transient_ladder, 3, 2));
    register_scenario(kernel("kernel/assemble",
                             "full vs incremental transient assembly, RC ladder + "
                             "6 MOSFETs (400 attempts x 3 iterations)",
                             run_assemble_kernel, 5, 3));
    register_scenario(kernel("kernel/fft", "real FFT, 65536 points", run_fft, 5, 3));
}

} // namespace snim::bench_scenarios
