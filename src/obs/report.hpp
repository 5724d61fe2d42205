// Run-report writers: serialise the phase tree, counters, histograms and
// log tallies collected in the obs registry to JSON (machine-readable,
// diffable run to run) or to util::Table text (human-readable, the format
// every bench already prints), and the one writer of the post-mortem
// bundles that embed it (snim_diag_*.json, snim_watchdog_*.json).
#pragma once

#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace snim::obs {

/// The full report as a JSON document:
/// { "phases": [...tree...], "counters": {...}, "values": {...}, "log": {...} }
Json report_json();

/// The full report rendered as text tables (phase tree indented by depth).
std::string report_text();

/// Writes the report according to SNIM_OBS: text to stderr, or JSON to
/// SNIM_OBS_FILE (default "snim_obs_report.json").  No-op when reporting
/// was not requested.  Registered atexit when SNIM_OBS is set, so simply
/// running any snim binary under SNIM_OBS=json yields a report file.
void write_env_report();

/// The event-journal tail (obs/events) as parsed records, oldest first.
JsonArray event_tail_json();

/// Directory of post-mortem bundles ("" = cwd); snim_bench's --diag-dir.
void set_bundle_dir(std::string dir);

/// Writes `payload` plus "manifest" (when set), "registry" and the
/// non-empty "events" tail to `<dir>/snim_<kind>_<run id>_<seq>.json`.
/// The name is claimed with O_EXCL (concurrent writers never collide) and
/// the document published over it by util::write_file_atomic (a crash
/// leaves an empty claim, never half a document).  Returns the path, or ""
/// on failure — never throws, so a bundle cannot mask what it documents.
std::string write_bundle(std::string_view kind, JsonObject payload);

} // namespace snim::obs
