// Cross-run comparison engine behind the snim_report tool.
//
// diff_reports() aligns two BENCH_*.json documents by scenario name, then
// inside each scenario by metric name (runtime stats, per-figure accuracy
// deltas, peak RSS, registry counters, time-series channels) and classifies
// every pair against configurable tolerances into equal / within-tolerance
// / improve / regress.  The result ranks regressions first, so the verdict
// table reads top-down as "what got worse".  trend_* render a run ledger
// (obs/run_ledger) as per-scenario sparkline history, text or
// self-contained HTML with the phase tree as a collapsible flame view;
// show_report() pretty-prints one report's manifest + scenarios.
//
// Everything here is pure JSON-in / struct-out — no registry dependency —
// so it works identically on reports whose registries are empty and is
// unit-testable on synthetic documents.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/provenance.hpp"

namespace snim::obs {

struct DiffTolerances {
    /// Median-runtime change treated as noise [percent].
    double runtime_pct = 25.0;
    /// Accuracy-delta change treated as noise [dB, absolute].
    double accuracy_db = 0.05;
    /// Peak-RSS change treated as noise [percent].
    double rss_pct = 30.0;
    /// Counter change treated as noise [percent]; counters are event counts
    /// and deterministic per seed, so the default is exact.
    double counter_pct = 0.0;
    /// Time-series offered-sample-count change treated as noise [percent].
    double timeseries_pct = 0.0;
    /// Accuracy-budget margin change treated as noise [dB, absolute].  A
    /// margin crossing 0 dB (headroom -> breach) regresses regardless.
    double budget_db = 0.5;
};

enum class DiffVerdict {
    Equal,   // bitwise-identical values
    Within,  // differs, inside tolerance
    Improve, // outside tolerance, in the good direction
    Regress, // outside tolerance, in the bad direction
    OnlyA,   // metric present only in the old run
    OnlyB,   // metric present only in the new run
};

const char* diff_verdict_name(DiffVerdict v);

struct MetricDiff {
    std::string scenario;
    std::string metric;  // "runtime/median_s", "accuracy/<name>",
                         // "rss/peak_bytes", "counter/<name>", "ts/<name>",
                         // "budget/<stage>" (schema-4 margin_db)
    double a = 0.0;      // old value (undefined under OnlyB)
    double b = 0.0;      // new value (undefined under OnlyA)
    double change_pct = 0.0; // (b - a) / a * 100 when a != 0
    DiffVerdict verdict = DiffVerdict::Equal;
    std::string detail;
};

struct ReportDiff {
    RunManifest manifest_a, manifest_b; // default-initialised for schema 1
    bool digests_match = false; // both manifests present with equal digests
    bool digests_known = false; // both reports carried a manifest
    int schema_a = 0, schema_b = 0;
    std::vector<MetricDiff> metrics;      // regressions ranked first
    std::vector<std::string> only_in_a;   // scenarios missing from B
    std::vector<std::string> only_in_b;   // scenarios new in B
};

/// Diffs two parsed BENCH_*.json documents (A = old/baseline, B = new).
/// This is the one comparison of two runs; CI gates on it through
/// `snim_report diff --fail-on-regress`.  Accepts schema_version 1 through
/// kBenchSchemaVersion; raises on any other version and on documents that
/// are not bench reports.
ReportDiff diff_reports(const Json& a, const Json& b,
                        const DiffTolerances& tol = {});

/// True when any metric regressed beyond tolerance.
bool diff_has_regression(const ReportDiff& d);

/// Ranked human-readable table; `limit` > 0 truncates to the first N rows
/// after ranking (regressions always survive the cut).
std::string diff_table(const ReportDiff& d, size_t limit = 0);

/// Unicode sparkline of `values` (▁..█); empty input gives "".
std::string sparkline(const std::vector<double>& values);

/// Per-scenario history over ledger entries (oldest first): sparkline of
/// median runtime, latest value, change vs the first run, accuracy status.
std::string trend_text(const std::vector<Json>& ledger);

/// Self-contained HTML version: sparklines as inline SVG, per-run table,
/// and the latest run's phase tree as a collapsible flame view (nested
/// <details> with width-proportional bars, wall time + RSS per phase).
std::string trend_html(const std::vector<Json>& ledger);

/// Pretty-prints one report: manifest fields, per-scenario runtime and
/// accuracy table, and the phase tree (with RSS columns when present).
std::string show_report(const Json& report);

/// Ranked accuracy-budget view of one schema-4 report: every scenario's
/// budget stages sorted worst-margin-first (breaches on top), followed by
/// the per-scenario solve-certificate summaries.  Says so when the report
/// carries no budget (older schema or obs-off build).  `limit` > 0
/// truncates after ranking; breached stages always survive the cut.
std::string budget_table(const Json& report, size_t limit = 0);

/// True when any budget stage is over budget (margin_db > 0) or any
/// scenario's certificate summary counts a breach.
bool budget_has_breach(const Json& report);

/// Pretty-prints a document's live-telemetry tail: the "events" array
/// (schema-3 BENCH reports, v3 diag bundles, watchdog bundles) as a
/// time/level/component table, followed by the top sampled stacks when a
/// "profile" member is present.  Works on any of the three document kinds;
/// says so when the document carries no events.
std::string show_events(const Json& report, size_t top_stacks = 10);

} // namespace snim::obs
