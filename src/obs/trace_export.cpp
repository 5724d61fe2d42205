#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/provenance.hpp"
#include "util/error.hpp"

namespace snim::obs {

namespace {

/// Total span of a node in seconds: its own inclusive time, or the sum of
/// its children when it is structural (or when clock jitter makes the
/// children sum slightly larger).
double node_span(const PhaseNode& node) {
    double kids = 0.0;
    for (const auto& c : node.children) kids += node_span(c);
    return std::max(node.seconds, kids);
}

/// All phase paths of a tree, for counter-to-phase attachment.
void collect_paths(const PhaseNode& node, std::vector<std::string>& out) {
    if (!node.path.empty()) out.push_back(node.path);
    for (const auto& c : node.children) collect_paths(c, out);
}

/// counter name -> (owning phase path, arg key).  The owner is the deepest
/// phase whose path is the counter name itself or a '/'-boundary prefix.
struct CounterHome {
    std::string phase;
    std::string key;
    uint64_t value = 0;
};

std::vector<CounterHome> assign_counters(
    const PhaseNode& tree, const std::vector<std::pair<std::string, uint64_t>>& counters) {
    std::vector<std::string> paths;
    collect_paths(tree, paths);
    std::vector<CounterHome> homes;
    homes.reserve(counters.size());
    for (const auto& [name, value] : counters) {
        CounterHome h;
        h.value = value;
        for (const auto& p : paths) {
            const bool exact = name == p;
            const bool prefixed = name.size() > p.size() && name.compare(0, p.size(), p) == 0 &&
                                  name[p.size()] == '/';
            if ((exact || prefixed) && p.size() > h.phase.size()) {
                h.phase = p;
                h.key = exact ? "count" : name.substr(p.size() + 1);
            }
        }
        if (h.phase.empty()) h.key = name; // unmatched -> otherData
        homes.push_back(std::move(h));
    }
    return homes;
}

double emit_node(JsonArray& events, const PhaseNode& node, int pid, int tid, double t0_us,
                 const std::vector<CounterHome>& homes) {
    const double span_us = node_span(node) * 1e6;
    const bool real = !node.name.empty();
    if (real) {
        JsonObject args;
        args.emplace("calls", node.calls);
        args.emplace("seconds", node.seconds);
        for (const auto& h : homes)
            if (h.phase == node.path) args.emplace(h.key, h.value);
        JsonObject b;
        b.emplace("name", node.name);
        b.emplace("cat", node.calls ? "phase" : "structural");
        b.emplace("ph", "B");
        b.emplace("ts", t0_us);
        b.emplace("pid", pid);
        b.emplace("tid", tid);
        b.emplace("args", Json(std::move(args)));
        events.push_back(Json(std::move(b)));
    }
    double cursor = t0_us;
    for (const auto& c : node.children)
        cursor += emit_node(events, c, pid, tid, cursor, homes);
    if (real) {
        JsonObject e;
        e.emplace("name", node.name);
        e.emplace("ph", "E");
        e.emplace("ts", t0_us + span_us);
        e.emplace("pid", pid);
        e.emplace("tid", tid);
        events.push_back(Json(std::move(e)));
    }
    return span_us;
}

/// Emits one channel as a Chrome counter track.  The channel's abscissa
/// (simulation time, iteration count, frequency) is mapped linearly onto
/// the lane's [t0_us, t0_us + span_us] wall window, so counter lanes line
/// up with the reconstructed phase timeline; a non-monotone abscissa falls
/// back to the sample index.
void emit_counter_events(JsonArray& events, const TimeSeries& ts, int pid, int tid,
                         double t0_us, double span_us) {
    if (ts.time.empty()) return;
    bool monotone = true;
    for (size_t k = 1; k < ts.time.size(); ++k)
        if (ts.time[k] < ts.time[k - 1]) {
            monotone = false;
            break;
        }
    const double lo = monotone ? ts.time.front() : 0.0;
    const double hi = monotone ? ts.time.back() : static_cast<double>(ts.time.size() - 1);
    const double range = hi - lo;
    for (size_t k = 0; k < ts.time.size(); ++k) {
        const double at = monotone ? ts.time[k] : static_cast<double>(k);
        const double frac = range > 0.0 ? (at - lo) / range : 0.0;
        JsonObject args;
        args.emplace("value", ts.value[k]);
        JsonObject c;
        c.emplace("name", ts.name);
        c.emplace("ph", "C");
        c.emplace("ts", t0_us + frac * span_us);
        c.emplace("pid", pid);
        c.emplace("tid", tid);
        c.emplace("args", Json(std::move(args)));
        events.push_back(Json(std::move(c)));
    }
}

Json metadata_event(const char* name, int pid, int tid, const std::string& value) {
    JsonObject args;
    args.emplace("name", value);
    JsonObject m;
    m.emplace("name", name);
    m.emplace("ph", "M");
    m.emplace("pid", pid);
    m.emplace("tid", tid);
    m.emplace("args", Json(std::move(args)));
    return Json(std::move(m));
}

/// Appends the duration events of one lane to `events`.  `t0_us` is the
/// begin timestamp of the lane's first top-level phase; returns the lane's
/// total span in microseconds.
double append_lane_events(JsonArray& events, const TraceLane& lane, int pid, int tid,
                          double t0_us) {
    const auto homes = assign_counters(lane.tree, lane.counters);
    double cursor = t0_us;
    for (const auto& c : lane.tree.children)
        cursor += emit_node(events, c, pid, tid, cursor, homes);
    const double span_us = cursor - t0_us;
    for (const auto& ts : lane.timeseries)
        emit_counter_events(events, ts, pid, tid, t0_us, span_us);
    return span_us;
}

} // namespace

Json chrome_trace_json(const std::vector<TraceLane>& lanes) {
    JsonArray events;
    events.push_back(metadata_event("process_name", 1, 0, "snim"));
    JsonObject unmatched;
    double offset_us = 0.0;
    int tid = 1;
    for (const auto& lane : lanes) {
        events.push_back(metadata_event("thread_name", 1, tid, lane.name));
        offset_us += append_lane_events(events, lane, 1, tid, offset_us);
        JsonObject loose;
        for (const auto& h : assign_counters(lane.tree, lane.counters))
            if (h.phase.empty()) loose.emplace(h.key, h.value);
        if (!loose.empty()) unmatched.emplace(lane.name, Json(std::move(loose)));
        ++tid;
    }
    JsonObject root;
    root.emplace("displayTimeUnit", "ms");
    root.emplace("traceEvents", Json(std::move(events)));
    // about:tracing shows otherData in the metadata pane, so the manifest
    // rides along with the trace it describes, next to the per-lane
    // unmatched counters ("manifest" is reserved — not a valid lane name).
    if (auto m = current_manifest()) unmatched.emplace("manifest", manifest_json(*m));
    if (!unmatched.empty()) root.emplace("otherData", Json(std::move(unmatched)));
    return Json(std::move(root));
}

TraceLane registry_trace_lane(const std::string& name) {
    TraceLane lane;
    lane.name = name;
    lane.tree = phase_tree();
    lane.counters = counters_snapshot();
    lane.timeseries = ts_snapshot();
    return lane;
}

} // namespace snim::obs
