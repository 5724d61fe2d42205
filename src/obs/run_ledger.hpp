// Append-only run ledger: one JSON line per completed benchmark run.
//
// The ledger is the repo's trajectory: `snim_bench --ledger ledger.jsonl`
// appends a compact summary of every run (manifest + per-scenario runtime,
// accuracy, peak RSS, key counters and the phase tree), and `snim_report
// trend ledger.jsonl` renders the per-scenario history as sparklines and a
// collapsible flame view.  JSONL because append is atomic enough for CI
// (one write per run, O_APPEND), is trivially mergeable across machines
// (cat), and keeps partial-file damage local to one line — read_ledger
// reports the offending line number instead of losing the file.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace snim::obs {

/// Version of the ledger-entry layout.
inline constexpr int kLedgerSchemaVersion = 1;

/// Distills a BENCH_*.json document (schema 1 or later) into one ledger entry:
/// { schema_version, manifest, scenarios: [ { name, kind, median_s, min_s,
///   accuracy: [...], accuracy_max_db, accuracy_pass, peak_rss_bytes,
///   counters: {...}, phases: [...] } ] }.
/// Schema-1 reports (no manifest, no RSS) produce entries with those
/// members absent — trend rendering degrades gracefully.
Json ledger_entry_from_report(const Json& bench_report);

/// Appends `entry` as one line to `path` (created when missing); raises on
/// I/O failure or a non-object entry.
void append_ledger(const std::string& path, const Json& entry);

/// Reads every non-blank line of `path` as one JSON entry; raises naming
/// the line number on a parse failure, or on open failure.
std::vector<Json> read_ledger(const std::string& path);

} // namespace snim::obs
