// Chrome trace-event export of the obs phase tree.
//
// The registry stores *aggregated* phases (total seconds + call count per
// '/'-separated path), not individual begin/end events, so the exporter
// reconstructs a deterministic timeline: every node's span is its inclusive
// seconds (or the sum of its children for structural nodes), children are
// laid out back to back inside their parent starting at the parent's begin
// timestamp.  The result is a well-formed duration-event stream — balanced
// B/E pairs with non-decreasing timestamps — loadable in chrome://tracing
// or Perfetto (ui.perfetto.dev, "Open trace file").
//
// Counters (Newton iterations, LU factorizations, CG iterations, transient
// steps...) ride along as args on the B event of the deepest phase whose
// path prefixes the counter name; counters with no matching phase are
// reported in the trace's otherData.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"

namespace snim::obs {

/// One named timeline of the trace: a phase tree plus the counters and
/// time-series channels recorded while it was built.  The bench harness
/// emits one lane per scenario.
struct TraceLane {
    std::string name;
    PhaseNode tree; // structural root (as returned by obs::phase_tree())
    std::vector<std::pair<std::string, uint64_t>> counters;
    /// Solver-health channels; rendered as Chrome counter tracks ("ph":"C")
    /// so Perfetto shows Newton effort aligned with the phase tree.  Each
    /// channel's abscissa is mapped linearly onto the lane's wall span.
    std::vector<TimeSeries> timeseries;
};

/// Builds the full Chrome trace JSON document:
///   { "displayTimeUnit": "ms", "traceEvents": [...], "otherData": {...} }
/// Each lane becomes one tid of pid 1 with a thread_name metadata event;
/// lanes are placed at increasing wall offsets so they do not overlap.
Json chrome_trace_json(const std::vector<TraceLane>& lanes);

/// Convenience: one lane snapshotted from the live registry.
TraceLane registry_trace_lane(const std::string& name);

} // namespace snim::obs
