// Run-report writers: serialise the phase tree, counters, histograms and
// log tallies collected in the obs registry to JSON (machine-readable,
// diffable run to run) or to util::Table text (human-readable, the format
// every bench already prints).
#pragma once

#include <string>

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

} // namespace snim::obs
