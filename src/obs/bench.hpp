// Benchmark scenario harness: named scenarios registered at startup, run
// with warmup + repetitions, each repetition against a freshly reset obs
// registry and a re-seeded default Rng.  Per scenario the runner collects
//
//   * wall-time statistics (min / median / p95 / mean over repetitions),
//   * the final repetition's registry snapshot (phase tree, counters,
//     value histograms) for the BENCH_*.json report and the Chrome trace,
//   * accuracy metrics the scenario body attaches (dB deltas of reproduced
//     figures against the paper-reference CSVs), asserted identical across
//     repetitions — a repetition-dependent metric is a determinism bug.
//
// The harness itself is independent of the simulation layers: scenario
// bodies live next to their subject (bench/scenarios.cpp wraps the figure
// reproductions and numeric kernels) and only this header is needed to
// register more.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "obs/trace_export.hpp"
#include "obs/vcd.hpp"

namespace snim::obs {

/// Version of the BENCH_*.json document layout.  diff_reports (`snim_report
/// diff`) accepts any version in [1, kBenchSchemaVersion] and refuses the
/// rest; readers must treat newer-version members as absent-when-missing.
/// History:
///   1 — initial layout (scenarios + runtime/accuracy/registry)
///   2 — adds the run provenance manifest and per-scenario peak_rss_bytes
///   3 — adds the live-telemetry tail: "events" (event-journal records,
///       oldest first) and "profile" (folded-stack sample counts when the
///       sampling profiler ran); both empty/absent when telemetry was off
///   4 — adds per-scenario "budget" (the accuracy-budget ledger snapshot,
///       figure accuracy deltas folded in as "figure/..." stages) and
///       "certificates" (the solve-certificate summary); both empty in
///       reports of older builds that compiled the registry out
inline constexpr int kBenchSchemaVersion = 4;

/// One accuracy score: a dB delta against a reference with a pass/fail
/// tolerance (the paper's quantitative claims: 2 dB VCO, 1 dB NMOS).
struct AccuracyMetric {
    std::string name;      // "pred_dbm vs reference"
    std::string reference; // "fig8_spur_vs_freq.csv" or a paper claim
    double delta_db = 0.0; // measured max |delta|
    double tolerance_db = 0.0;
    uint64_t points = 0;   // matched comparison points
    bool pass() const { return delta_db <= tolerance_db; }
};

/// Handed to the scenario body on every repetition.
struct ScenarioContext {
    bool quick = false;    // --quick: trimmed sweeps / captures
    uint64_t seed = 0;     // the default-Rng seed in effect
    int repetition = 0;    // 0-based, warmups excluded
    /// Worker threads for parallel sweep corners (BenchOptions::threads
    /// resolved through util::default_thread_count()); always >= 1.
    /// Scenario results are bit-identical for every value.
    int threads = 1;
    /// Waveform dump directory (--dump-waves); non-empty only on the last
    /// recorded repetition.  Scenario bodies export probe waveforms through
    /// dump_waves(); the runner exports the solver-health channels itself.
    std::string wave_dir;
    /// Accuracy metrics recorded by the body (append via add_accuracy).
    std::vector<AccuracyMetric> accuracy;
    /// Free-form annotations (skipped corners, degraded builds) attached by
    /// the body via add_note; land in the BENCH_*.json scenario entry and
    /// are asserted deterministic across repetitions like accuracy metrics.
    std::vector<std::string> notes;

    void add_accuracy(AccuracyMetric m) { accuracy.push_back(std::move(m)); }
    void add_note(std::string note) { notes.push_back(std::move(note)); }

    /// Runs one sweep corner, converting a thrown snim::Error into a
    /// skip-and-record: the error becomes a note ("corner '<tag>' skipped:
    /// ..."), bumps the bench/skipped_corners counter and returns false so
    /// the scenario keeps producing the corners that do work instead of
    /// aborting the figure.  Non-Error exceptions propagate.  A figure
    /// whose every corner is skipped ends without accuracy metrics, which
    /// the accuracy gate fails, naming the skipped corners.
    bool guard_corner(const std::string& tag, const std::function<void()>& body);

    /// Writes `signals` to <wave_dir>/<slug(tag)>.vcd and .csv; no-op
    /// returning "" when wave_dir is empty.  Returns the VCD path.
    std::string dump_waves(const std::string& tag,
                           const std::vector<WaveSignal>& signals) const;

    /// Fans `count` independent sweep corners out over `threads` workers.
    /// Each corner receives a private ScenarioContext; its accuracy metrics
    /// and notes (and, via obs::parallel_tasks, everything the corner put in
    /// the obs registry) are merged back into this context in corner-index
    /// order, so the scenario result is bit-identical for every thread
    /// count.  Corner bodies must not share mutable state — rebuild the
    /// model per corner instead of mutating one netlist.
    void run_corners(size_t count,
                     const std::function<void(ScenarioContext&, size_t)>& body);
};

struct Scenario {
    std::string name;        // "fig8_spur_vs_freq", "kernel/sparse_lu"
    std::string description;
    std::string kind = "figure"; // "figure" | "kernel" | "flow"
    int repeat = 3;          // repetitions (full mode)
    int quick_repeat = 0;    // repetitions under --quick; 0 -> same as repeat
    int warmup = 1;          // discarded warmup runs (full mode; 0 under --quick)
    /// Reference files the body scores against.  snim_bench resolves every
    /// matched scenario's files before the first one runs, so a missing
    /// file fails the invocation at once instead of mid-suite.
    std::vector<std::string> references;
    std::function<void(ScenarioContext&)> run;
};

/// Registers a scenario; raises on a duplicate name.
void register_scenario(Scenario s);

/// All registered scenarios, sorted by name.
std::vector<const Scenario*> all_scenarios();

/// Scenarios whose name contains any of the comma-separated substrings in
/// `filter` (empty filter -> all), sorted by name.
std::vector<const Scenario*> match_scenarios(const std::string& filter);

struct BenchOptions {
    bool quick = false;
    int repeat_override = 0; // 0 -> scenario defaults
    uint64_t seed = 0x9e3779b97f4a7c15ULL;
    /// --dump-waves: directory for per-scenario VCD/CSV waveform exports
    /// (probe waveforms from scenario bodies plus the solver-health
    /// channels).  Empty -> no dumps.
    std::string wave_dir;
    /// --threads: worker threads for parallel sweep corners inside
    /// scenarios; 0 -> util::default_thread_count() (SNIM_THREADS, else 1).
    int threads = 0;
};

struct RuntimeStats {
    std::vector<double> runs_s; // per-repetition wall seconds
    double min_s = 0.0;
    double median_s = 0.0;
    double p95_s = 0.0;
    double mean_s = 0.0;
};

/// Computed from `runs` (empty input -> zeros).  Exposed for tests.
RuntimeStats runtime_stats(std::vector<double> runs);

struct ScenarioResult {
    std::string name;
    std::string kind;
    std::string description;
    int repetitions = 0;
    int warmup = 0;
    RuntimeStats runtime;
    std::vector<AccuracyMetric> accuracy; // identical on every repetition
    std::vector<std::string> notes;       // identical on every repetition
    Json registry;   // obs::report_json() snapshot of the final repetition
    /// Accuracy-budget ledger of the final repetition (schema 4), the
    /// scenario's figure accuracy deltas folded in as "figure/<scenario>/
    /// <metric>" stages so one ranked view covers the whole error pipeline.
    Json budget = Json(JsonArray{});
    /// Solve-certificate summary of the final repetition (schema 4); empty
    /// object when no solve was certified.
    Json certificates = Json(JsonObject{});
    TraceLane lane;  // phase tree + counters of the final repetition
    /// Process peak RSS sampled after the final repetition; 0 when resource
    /// sampling is unavailable (no /proc).
    uint64_t peak_rss_bytes = 0;
};

/// Configuration digest of the resolved bench options (quick, repetition
/// override, seed, wave dir) — the digest stored in the run manifest.
/// Environment (thread count) is deliberately excluded: scenario results
/// are thread-count independent, so two runs differing only in --threads
/// are the same configuration.
ConfigDigest bench_config_digest(const BenchOptions& opt);

/// Runs warmups then repetitions; raises when accuracy metrics differ
/// between repetitions (broken determinism).  Leaves the obs registry
/// disabled but intact (the final repetition's data stays readable).
/// Installs the process-wide run manifest when none is set yet.
ScenarioResult run_scenario(const Scenario& s, const BenchOptions& opt);

/// The BENCH_*.json document.
Json bench_report_json(const std::vector<ScenarioResult>& results,
                       const BenchOptions& opt);

/// Serialises `report` to `path`; throws snim::Error on I/O failure.
void write_bench_report(const std::string& path, const Json& report);

// --- accuracy gate -------------------------------------------------------

/// The absolute accuracy gate of one scenario: "" when it passes, else why
/// it fails.  It fails on a metric beyond its tolerance, and on a figure
/// without a single accuracy metric: every corner was skipped
/// (ScenarioContext::guard_corner), so nothing was checked, and the reason
/// names the skipped corners.  Comparing two runs is diff_reports' job
/// (obs/compare.hpp).
std::string accuracy_failure(const ScenarioResult& r);

} // namespace snim::obs
