// snim_paperflow: runs one paper-flow benchmark workload once, in this
// process, on one thread.
//
//   snim_paperflow --workload <small_signal|vco_session|ground_width>
//                  --seed <n> --data-dir <dir> [--trace-file <path>]
//
// A workload is a session the paper's Figure-2 flow defines: build impact
// models (testcases -> core -> substrate + interconnect extraction), then
// simulate and predict, and score every result against the paper-reference
// CSVs in --data-dir at the paper's tolerances (1 dB for the NMOS
// structure, 2 dB for the VCO).  The design points are the paper's; the
// seed only reaches set_default_rng_seed and the record.
//
// The last stdout line is one JSON record: wall and set-up time, peak RSS,
// every check, the work signature (deterministic counts that must repeat
// exactly for timings of two runs to be comparable) and the machine-speed
// probe timed right after the workload (probe.hpp).  With
// --trace-file, every call this file makes into a layer's public functions
// is kept in memory as a span (name, start, end, parent, run id) and the
// spans are written to that file at exit.
//
// Exit codes: 0 every check passed; 1 a check failed (an error, a missing
// reference, zero matched points or a delta over tolerance); 2 bad usage;
// 3 telemetry compiled out for the one workload that runs the registry.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "circuit/sources.hpp"
#include "core/accuracy.hpp"
#include "core/contribution.hpp"
#include "dsp/spectrum.hpp"
#include "numeric/vecops.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "obs/resources.hpp"
#include "rf/oscillator.hpp"
#include "sim/ac.hpp"
#include "sim/op.hpp"
#include "sim/transfer.hpp"
#include "testcases/nmos_structure.hpp"
#include "testcases/vco.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

#include "probe.hpp"

namespace {

using namespace snim;
using Clock = std::chrono::steady_clock;
using testcases::NmosStructure;
using testcases::VcoTestcase;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// --- tracing ----------------------------------------------------------------

struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0; // seconds since the run started
    double end = 0.0;
    /// Duration reported by the library (ImpactModel::substrate_seconds),
    /// not timed here; placed at its parent's start.
    bool derived = false;
};

class Tracer {
public:
    Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

    int open(const char* name) {
        if (!on_) return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, parent, now(), 0.0, false});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }
    void close(int id) {
        if (id < 0) return;
        spans_[id].end = now();
        stack_.pop_back();
    }
    /// A child of the innermost open span, `seconds` long.
    void derived(const char* name, double seconds) {
        if (!on_ || stack_.empty()) return;
        const double start = spans_[stack_.back()].start;
        spans_.push_back({name, stack_.back(), start, start + seconds, true});
    }
    const std::vector<Span>& spans() const { return spans_; }

private:
    double now() const { return seconds_between(origin_, Clock::now()); }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class Scope {
public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& t_;
    int id_;
};

// --- checks and the work signature -------------------------------------------

struct Check {
    std::string name;
    std::string file; // reference CSV under --data-dir
    double tolerance_db = 0.0;
    double delta_db = 0.0;
    uint64_t points = 0;
    bool scored = false;
    std::string error; // why the check could not be scored

    bool pass() const {
        return scored && error.empty() && points > 0 && delta_db <= tolerance_db;
    }
};

/// Deterministic counts of the work a run did.
struct Work {
    long builds = 0;
    long mesh_nodes = 0;
    long op_calls = 0;
    long ac_points = 0;
    long captures = 0;
    long sim_ns = 0; // simulated time of the direct captures
    long spectra = 0;
    long calibrate = 0;
    long calibrate_paths = 0;
    long predict = 0;
    long simulate = 0;
    long contribution = 0;
};

bool file_exists(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f) std::fclose(f);
    return f != nullptr;
}

// --- the session: every call into a layer goes through here -------------------

class Session {
public:
    Session(std::string data_dir, bool trace, Clock::time_point origin)
        : tracer(trace, origin), data_dir_(std::move(data_dir)) {}

    Tracer tracer;
    Work work;
    std::vector<Check> checks;
    double setup_s = 0.0;

    /// testcases::build_* then testcases::build_model; the whole of it is
    /// set-up time.
    template <class MakeTestcase>
    core::ImpactModel build(MakeTestcase make, const core::FlowOptions& fo) {
        const auto t0 = Clock::now();
        auto testcase = [&] {
            Scope s(tracer, "testcases.build");
            return make();
        }();
        auto model = [&] {
            Scope s(tracer, "core.build_model");
            auto m = testcases::build_model(std::move(testcase), fo);
            tracer.derived("substrate.extract", m.substrate_seconds);
            tracer.derived("interconnect.extract", m.interconnect_seconds);
            return m;
        }();
        setup_s += seconds_between(t0, Clock::now());
        ++work.builds;
        work.mesh_nodes += static_cast<long>(model.mesh_nodes);
        return model;
    }

    std::vector<double> op(circuit::Netlist& nl) {
        Scope s(tracer, "sim.op");
        ++work.op_calls;
        return sim::operating_point(nl);
    }

    sim::AcResult ac(circuit::Netlist& nl, const std::vector<double>& freqs,
                     const std::vector<double>& xop) {
        Scope s(tracer, "sim.ac");
        work.ac_points += static_cast<long>(freqs.size());
        return sim::ac_sweep(nl, freqs, xop);
    }

    std::vector<sim::TransferResult> transfer(circuit::Netlist& nl, const char* source,
                                              const std::vector<std::string>& nodes,
                                              const std::vector<double>& freqs,
                                              const std::vector<double>& xop) {
        Scope s(tracer, "sim.ac");
        work.ac_points += static_cast<long>(freqs.size());
        return sim::transfer_multi(nl, source, nodes, freqs, xop);
    }

    rf::OscCapture capture(circuit::Netlist& nl, const rf::OscOptions& osc) {
        Scope s(tracer, "rf.capture");
        ++work.captures;
        work.sim_ns += std::lround((osc.settle + osc.capture) * 1e9);
        return rf::capture_oscillator(nl, osc);
    }

    dsp::Spectrum spectrum(const std::vector<double>& wave, double fs) {
        Scope s(tracer, "dsp.spectrum");
        ++work.spectra;
        return dsp::amplitude_spectrum(wave, fs);
    }

    void calibrate(core::ImpactAnalyzer& a) {
        Scope s(tracer, "core.calibrate");
        ++work.calibrate;
        a.calibrate();
    }

    void calibrate_paths(core::ImpactAnalyzer& a) {
        Scope s(tracer, "core.calibrate_paths");
        ++work.calibrate_paths;
        a.calibrate_paths();
    }

    double predict_dbm(core::ImpactAnalyzer& a, double fnoise) {
        Scope s(tracer, "core.predict");
        ++work.predict;
        return a.predict(fnoise).total_dbm();
    }

    double simulate_dbm(core::ImpactAnalyzer& a, double fnoise) {
        Scope s(tracer, "core.simulate");
        ++work.simulate;
        return a.simulate(fnoise).total_dbm();
    }

    core::ContributionReport contribution(core::ImpactAnalyzer& a,
                                          const std::vector<double>& freqs) {
        Scope s(tracer, "core.contribution");
        ++work.contribution;
        return core::contribution_sweep(a, freqs);
    }

    /// Loads and scores one check (the bench.score layer).  `transform`
    /// maps reference values into the computed series' units.
    void score(Check& c, const char* key_col, const char* value_col,
               const std::vector<double>& keys, const std::vector<double>& values,
               const char* filter_col = "", const char* filter_value = "",
               double key_rel_tol = 1e-3, double (*transform)(double) = nullptr) {
        Scope s(tracer, "bench.score");
        auto ref = core::load_reference_series(path(c.file), key_col, value_col,
                                               filter_col, filter_value);
        if (transform)
            for (auto& v : ref.values) v = transform(v);
        const auto m = core::reference_delta(c.name, ref, c.file, c.tolerance_db, keys,
                                             values, key_rel_tol);
        c.delta_db = m.delta_db;
        c.points = m.points;
        c.scored = true;
    }

    /// Runs one analysis that scores `planned`.  A missing reference fails
    /// it before any work is done; a snim::Error (including zero matched
    /// points) fails every check it had not scored yet.
    template <class Body>
    void analysis(std::vector<Check> planned, Body body) {
        const size_t first = checks.size();
        for (auto& c : planned) checks.push_back(std::move(c));
        std::span<Check> mine(checks.data() + first, checks.size() - first);
        for (const auto& c : mine) {
            if (file_exists(path(c.file))) continue;
            for (auto& m : mine) m.error = "missing reference " + path(c.file);
            return;
        }
        try {
            body(mine);
        } catch (const std::exception& e) {
            for (auto& m : mine)
                if (!m.scored) m.error = e.what();
        }
        for (auto& m : mine)
            if (!m.scored && m.error.empty()) m.error = "analysis did not score this check";
    }

private:
    std::string path(const std::string& file) const { return data_dir_ + "/" + file; }

    std::string data_dir_;
};

Check check(std::string name, std::string file, double tolerance_db) {
    Check c;
    c.name = std::move(name);
    c.file = std::move(file);
    c.tolerance_db = tolerance_db;
    return c;
}

constexpr double kNmosTolDb = 1.0;
constexpr double kVcoTolDb = 2.0;

// --- workloads ----------------------------------------------------------------

core::FlowOptions nmos_flow_options() {
    core::FlowOptions fo;
    fo.substrate.mesh.focus = geom::Rect(-20, -20, 50, 30);
    fo.substrate.mesh.fine_pitch = 3.0;
    fo.substrate.mesh.margin = 40.0;
    return fo;
}

/// Figure 3 on the NMOS structure's fine mesh (10 biases, operating point
/// plus the 5 MHz substrate->output transfer), then the VCO tuning curve
/// (7 vtune points, operating point plus a 161-point AC sweep each).
void small_signal(Session& s) {
    s.analysis({check("fig3 substrate->output transfer sim_db", "fig3_nmos_transfer.csv",
                      kNmosTolDb)},
               [&](std::span<Check> c) {
                   auto model = s.build([] { return testcases::build_nmos_structure(); },
                                        nmos_flow_options());
                   auto& nl = model.netlist;
                   auto* vg = nl.find_as<circuit::VSource>(NmosStructure::kGateSource);
                   const auto biases = linspace(0.7, 1.6, 10);
                   std::vector<double> sim_db;
                   for (double bias : biases) {
                       vg->set_waveform(circuit::Waveform::dc(bias));
                       const auto xop = s.op(nl);
                       const auto tr = s.transfer(nl, NmosStructure::kNoiseSource,
                                                  {NmosStructure::kOut}, {5e6}, xop);
                       sim_db.push_back(units::db20(std::abs(tr[0].h[0])));
                   }
                   s.score(c[0], "vg", "sim_db", biases, sim_db);
               });

    s.analysis({check("vco tank resonance 20log10(f_res/1GHz)", "table_vco_specs.csv",
                      kVcoTolDb)},
               [&](std::span<Check> c) {
                   auto model = s.build([] { return testcases::build_vco(); },
                                        testcases::vco_flow_options());
                   auto& nl = model.netlist;
                   nl.add<circuit::ISource>("probe", nl.existing_node(VcoTestcase::kOutN),
                                            nl.existing_node(VcoTestcase::kOutP),
                                            circuit::Waveform::dc(0.0),
                                            circuit::AcSpec{1e-3, 0.0});
                   auto* vt = nl.find_as<circuit::VSource>(VcoTestcase::kVtuneSource);
                   const auto outp = nl.existing_node(VcoTestcase::kOutP);
                   const auto outn = nl.existing_node(VcoTestcase::kOutN);
                   const auto freqs = linspace(2.0e9, 4.0e9, 161);
                   const auto vtunes = linspace(0.0, 1.8, 7);
                   std::vector<double> fres_db;
                   for (double v : vtunes) {
                       vt->set_waveform(circuit::Waveform::dc(v));
                       const auto xop = s.op(nl);
                       const auto ac = s.ac(nl, freqs, xop);
                       size_t kmax = 0;
                       double best = 0.0;
                       for (size_t k = 0; k < freqs.size(); ++k) {
                           const double mag = std::abs(ac.at(k, outp) - ac.at(k, outn));
                           if (mag > best) {
                               best = mag;
                               kmax = k;
                           }
                       }
                       fres_db.push_back(units::db20(freqs[kmax] / 1e9));
                   }
                   s.score(c[0], "vtune", "fres_GHz", vtunes, fres_db, "", "", 1e-3,
                           units::db20);
               });
}

core::AnalyzerOptions analyzer_options() {
    core::AnalyzerOptions aopt;
    aopt.osc = testcases::vco_osc_options();
    return aopt;
}

/// Figures 7, 8 and 9 on the nominal VCO, each analysis building its own
/// model from the same layout as every existing caller does.
void vco_session(Session& s) {
    s.analysis({check("fig7 spectrum dBc per FFT bin", "fig7_spectrum.csv", kVcoTolDb)},
               [&](std::span<Check> c) {
                   auto model = s.build([] { return testcases::build_vco(); },
                                        testcases::vco_flow_options());
                   auto& nl = model.netlist;
                   const double fn = 10e6;
                   nl.find_as<circuit::VSource>(VcoTestcase::kNoiseSource)
                       ->set_waveform(circuit::Waveform::sin(0.0, 0.356, fn));
                   rf::OscOptions osc = testcases::vco_osc_options();
                   osc.capture = 1.0e-6; // the reference run's window: identical FFT bins
                   const auto cap = s.capture(nl, osc);
                   const auto spec = s.spectrum(cap.wave, cap.fs);
                   std::vector<double> keys, dbc;
                   for (size_t k = 0; k < spec.freq.size(); ++k) {
                       if (std::fabs(spec.freq[k] - cap.fc) > 4 * fn) continue;
                       const double v =
                           units::db20(std::max(spec.amp[k], 1e-12) / cap.amplitude);
                       if (v <= -80.0) continue; // noise-floor bins are not in the figure
                       keys.push_back(spec.freq[k] / 1e9);
                       dbc.push_back(v);
                   }
                   s.score(c[0], "freq_GHz", "dbc", keys, dbc, "", "", 1e-4);
               });

    s.analysis({check("fig8 prediction total dBm (vtune=0.9)", "fig8_spur_vs_freq.csv",
                      kVcoTolDb),
                check("fig8 transient total dBm (vtune=0.9)", "fig8_spur_vs_freq.csv",
                      kVcoTolDb)},
               [&](std::span<Check> c) {
                   auto model = s.build([] { return testcases::build_vco(); },
                                        testcases::vco_flow_options());
                   model.netlist.find_as<circuit::VSource>(VcoTestcase::kVtuneSource)
                       ->set_waveform(circuit::Waveform::dc(0.9));
                   core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource,
                                                 testcases::vco_noise_entries(),
                                                 analyzer_options());
                   s.calibrate(analyzer);
                   const std::vector<double> f_pred{1e6, 2e6, 3e6, 5e6, 8e6, 15e6};
                   std::vector<double> pred;
                   for (double f : f_pred) pred.push_back(s.predict_dbm(analyzer, f));
                   const double fmeas = 15e6;
                   const double meas = s.simulate_dbm(analyzer, fmeas);
                   s.score(c[0], "fnoise_Hz", "pred_dbm", f_pred, pred, "vtune", "0.9");
                   s.score(c[1], "fnoise_Hz", "meas_dbm", {fmeas}, {meas}, "vtune", "0.9");
               });

    // Leave-one-out on the two dominant (resistive) paths; each path is
    // ablated on its own, so the minor entries do not change these columns.
    auto entries = testcases::vco_noise_entries();
    entries.resize(2);
    std::vector<Check> fig9;
    for (const auto& e : entries)
        fig9.push_back(check("fig9 " + e.label + " contribution dBc",
                             "fig9_contributions.csv", kVcoTolDb));
    s.analysis(std::move(fig9), [&](std::span<Check> c) {
        testcases::VcoOptions vopt;
        vopt.vtune = 0.0;
        auto model = s.build([&] { return testcases::build_vco(vopt); },
                             testcases::vco_flow_options());
        core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource, entries,
                                      analyzer_options());
        s.calibrate(analyzer);
        s.calibrate_paths(analyzer);
        const auto freqs = logspace(1e6, 15e6, 6);
        const auto report = s.contribution(analyzer, freqs);
        for (size_t i = 0; i < report.entries.size() && i < c.size(); ++i) {
            const auto& e = report.entries[i];
            const std::string column = e.label + " [dBc]";
            s.score(c[i], "fnoise [MHz]", column.c_str(), freqs, e.spur_dbc);
        }
    });
}

/// Figure 10: the real VCO and the VCO with ground straps widened 2x, each
/// a distinct layout that is extracted, calibrated and predicted at the
/// five reference noise frequencies.
void ground_width(Session& s) {
    struct Variant {
        const char* name;
        double strap_width;
    };
    const Variant variants[] = {{"real VCO", 1.0}, {"ground lines widened 2x", 2.0}};
    const auto freqs = logspace(1e6, 15e6, 5);
    for (const auto& v : variants) {
        s.analysis({check(format("fig10 total dBm (%s)", v.name), "fig10_ground_width.csv",
                          kVcoTolDb)},
                   [&](std::span<Check> c) {
                       testcases::VcoOptions vopt;
                       vopt.ground_strap_width = v.strap_width;
                       auto model = s.build([&] { return testcases::build_vco(vopt); },
                                            testcases::vco_flow_options());
                       core::ImpactAnalyzer analyzer(model, VcoTestcase::kNoiseSource,
                                                     testcases::vco_noise_entries(),
                                                     analyzer_options());
                       s.calibrate(analyzer);
                       std::vector<double> dbm;
                       for (double f : freqs) dbm.push_back(s.predict_dbm(analyzer, f));
                       s.score(c[0], "fnoise_Hz", "total_dbm", freqs, dbm, "variant",
                               v.name);
                   });
    }
}

// --- output -------------------------------------------------------------------

obs::Json work_json(const Work& w) {
    obs::JsonObject o;
    o.emplace("core.builds", static_cast<double>(w.builds));
    o.emplace("substrate.mesh_nodes", static_cast<double>(w.mesh_nodes));
    o.emplace("sim.op_calls", static_cast<double>(w.op_calls));
    o.emplace("sim.ac_points", static_cast<double>(w.ac_points));
    o.emplace("rf.captures", static_cast<double>(w.captures));
    o.emplace("rf.sim_ns", static_cast<double>(w.sim_ns));
    o.emplace("dsp.spectra", static_cast<double>(w.spectra));
    o.emplace("core.calibrate_calls", static_cast<double>(w.calibrate));
    o.emplace("core.calibrate_paths_calls", static_cast<double>(w.calibrate_paths));
    o.emplace("core.predict_calls", static_cast<double>(w.predict));
    o.emplace("core.simulate_calls", static_cast<double>(w.simulate));
    o.emplace("core.contribution_calls", static_cast<double>(w.contribution));
    return o;
}

obs::Json checks_json(const std::vector<Check>& checks) {
    obs::JsonArray a;
    for (const auto& c : checks) {
        obs::JsonObject o;
        o.emplace("name", c.name);
        o.emplace("reference", c.file);
        o.emplace("tolerance_db", c.tolerance_db);
        o.emplace("delta_db", c.delta_db);
        o.emplace("points", c.points);
        o.emplace("pass", c.pass());
        o.emplace("error", c.error);
        a.push_back(std::move(o));
    }
    return a;
}

obs::Json spans_json(const std::vector<Span>& spans) {
    obs::JsonArray a;
    for (size_t i = 0; i < spans.size(); ++i) {
        obs::JsonObject o;
        o.emplace("id", static_cast<int>(i));
        o.emplace("parent", spans[i].parent);
        o.emplace("name", spans[i].name);
        o.emplace("start_s", spans[i].start);
        o.emplace("end_s", spans[i].end);
        o.emplace("derived", spans[i].derived);
        a.push_back(std::move(o));
    }
    return a;
}

struct Args {
    std::string workload;
    uint64_t seed = 0;
    std::string data_dir;
    std::string trace_file;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) raise("%s needs a value", flag.c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            char* end = nullptr;
            a.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0' || *value == '-')
                raise("--seed must be a non-negative integer, got '%s'", value);
            have_seed = true;
        } else if (flag == "--data-dir") {
            a.data_dir = value;
        } else if (flag == "--trace-file") {
            a.trace_file = value;
        } else {
            raise("unknown flag %s", flag.c_str());
        }
    }
    if (a.workload.empty() || !have_seed || a.data_dir.empty())
        raise("usage: snim_paperflow --workload <name> --seed <n> --data-dir <dir> "
              "[--trace-file <path>]");
    return a;
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    void (*workload)(Session&) = nullptr;
    try {
        args = parse_args(argc, argv);
        if (args.workload == "small_signal") workload = small_signal;
        else if (args.workload == "vco_session") workload = vco_session;
        else if (args.workload == "ground_width") workload = ground_width;
        else raise("unknown workload '%s'", args.workload.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "snim_paperflow: %s\n", e.what());
        return 2;
    }

    set_default_rng_seed(args.seed);
    util::set_default_thread_count(1);
    const auto manifest =
        obs::make_run_manifest("snim_paperflow", obs::ConfigDigest{}, args.seed, 1);
    obs::set_current_manifest(manifest);
    // The registry is part of vco_session (certificates, KCL audits and the
    // MOR probe run only while it is on); the other workloads run without it.
    const bool registry = args.workload == "vco_session";
    if (registry && !manifest.obs_enabled) {
        std::fprintf(stderr,
                     "snim_paperflow: vco_session needs telemetry, but this build has "
                     "SNIM_ENABLE_OBS=OFF\n");
        return 3;
    }
    obs::set_enabled(registry);

    const auto t0 = Clock::now();
    Session session(args.data_dir, !args.trace_file.empty(), t0);
    {
        Scope root(session.tracer, "bench.workload");
        workload(session);
    }
    const double wall_s = seconds_between(t0, Clock::now());
    // VmHWM of this process image.  getrusage's ru_maxrss would also count
    // the launcher it was forked from, since Linux keeps it across exec.
    const double peak_rss_mb =
        static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
    // After the peak RSS reading, so the probe's own memory is not in it.
    const double probe_s = perfbench::probe_seconds();

    long failed = 0;
    double margin = std::numeric_limits<double>::infinity();
    for (const auto& c : session.checks) {
        if (!c.pass()) ++failed;
        if (c.scored) margin = std::min(margin, c.tolerance_db - c.delta_db);
    }

    obs::JsonObject build;
    build.emplace("type", manifest.build_type);
    build.emplace("obs", manifest.obs_enabled);
    build.emplace("faults", manifest.faults_enabled);
    build.emplace("compiler", manifest.compiler);

    obs::JsonObject out;
    out.emplace("workload", args.workload);
    out.emplace("seed", args.seed);
    out.emplace("run_id", manifest.run_id);
    out.emplace("threads", util::default_thread_count());
    out.emplace("registry", obs::enabled());
    out.emplace("build", std::move(build));
    out.emplace("wall_s", wall_s);
    out.emplace("setup_s", session.setup_s);
    out.emplace("probe_s", probe_s);
    out.emplace("peak_rss_mb", peak_rss_mb);
    out.emplace("attempted", static_cast<int>(session.checks.size()));
    out.emplace("failed", static_cast<int>(failed));
    // null when no check was scored
    out.emplace("accuracy_margin_db", margin);
    out.emplace("checks", checks_json(session.checks));
    out.emplace("work", work_json(session.work));

    if (!args.trace_file.empty()) {
        obs::JsonObject trace;
        trace.emplace("run_id", manifest.run_id);
        trace.emplace("workload", args.workload);
        trace.emplace("spans", spans_json(session.tracer.spans()));
        try {
            obs::write_json_file(args.trace_file, obs::Json(std::move(trace)), -1);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "snim_paperflow: %s\n", e.what());
            return 2;
        }
    }
    std::printf("%s\n", obs::Json(std::move(out)).dump(-1).c_str());
    return failed == 0 ? 0 : 1;
}
