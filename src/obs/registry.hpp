// Observability registry: named monotonic counters, value histograms,
// hierarchical phase accumulators and time-series channels (timeseries.hpp)
// shared by the whole library.
//
// Design goals, in order:
//   1. Near-zero overhead when disabled: every recording entry point is an
//      inline relaxed load of the enabled flag.  Hot paths (sparse LU,
//      transient stepping) can therefore stay instrumented unconditionally.
//   2. Cheap when enabled: each literal call site interns a handle once,
//      as a static (obs::Counter, obs::Value, obs::Phase, obs::Channel);
//      the handle's id indexes the registry's storage.  A
//      record through a handle appends one plain 24-byte op (kind, id, two
//      doubles) to the calling thread's bounded log: no name lookup, no
//      string, no allocation, no lock.
//   3. Thread-safe: threads share registry data only under one mutex,
//      taken once per applied batch.  A thread's log is applied, in its
//      recording order, when it is full, before any read on that thread
//      (counter_value, value_stats, the snapshots and the reports), at
//      thread exit and, for obs::parallel_tasks captures, at commit in task
//      index order.  A read sees every op of its own thread and of every
//      joined thread, so after join() totals are exact; it can miss another
//      live thread's last unapplied batch (at most kLogCapacity ops).
//   4. One build: every build compiles the subsystem in, and the runtime
//      flag (obs::set_enabled or SNIM_OBS, below) is its only switch.
//
// Phase names use '/'-separated paths ("sim/transient/newton"); the path
// segments define the phase tree reported by obs/report.  Counter and
// histogram names use the same convention for grouping only.  The
// string_view recording overloads intern their name on every call; they
// exist for dynamic names (format("sim/op/rung/%s/attempts", ...)) and
// tests.  An entry shows up in snapshots once something has been recorded
// on it since the last reset(), whichever way it was recorded.
//
// Enabling: obs::set_enabled(true), or the SNIM_OBS environment variable
// (read once, before main):
//   SNIM_OBS=0 / off / (unset)  -> disabled
//   SNIM_OBS=1 / on / text      -> enabled, text report to stderr at exit
//   SNIM_OBS=json               -> enabled, JSON report written at exit to
//                                  SNIM_OBS_FILE (default snim_obs_report.json)
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace snim::obs {

/// Where the end-of-process report goes when driven by SNIM_OBS.
enum class ReportMode { None, Text, Json };

/// Aggregate statistics of one value histogram.
struct ValueStats {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
};

/// One phase accumulator: inclusive wall time and number of enter/exit
/// pairs, plus resident-set attribution for phases whose ScopedTimer was
/// constructed with Rss::Track (rss_samples == 0 means never sampled).
struct PhaseStats {
    uint64_t calls = 0;
    double seconds = 0.0;
    uint64_t rss_samples = 0;    // tracked enter/exit pairs
    int64_t rss_delta_bytes = 0; // summed RSS growth across tracked calls
    uint64_t rss_peak_bytes = 0; // max process high-water mark observed
};

/// Node of the phase tree derived from '/'-separated phase names.  A node
/// with calls == 0 is structural only (an interior path segment that was
/// never timed itself).
struct PhaseNode {
    std::string name;                // last path segment
    std::string path;                // full '/'-joined path
    uint64_t calls = 0;
    double seconds = 0.0;            // inclusive wall time of this phase
    uint64_t rss_samples = 0;        // memory attribution (see PhaseStats)
    int64_t rss_delta_bytes = 0;
    uint64_t rss_peak_bytes = 0;
    std::vector<PhaseNode> children; // sorted by name
};

/// Ops a thread buffers before its log is applied to the registry.
inline constexpr size_t kLogCapacity = 256;

namespace detail {

extern std::atomic<bool> g_enabled;

/// One recorded event as a thread log or task capture holds it.  Integer
/// payloads (counter deltas, RSS bytes) travel bit-cast in the doubles.
struct Op {
    enum Kind : uint8_t { Count, Value, Phase, PhaseRss, Ts, TsNumbered };
    Kind kind;
    uint32_t id; // handle id: indexes the registry's storage of that kind
    double a;    // delta bits / sample / seconds / RSS delta bits / ts time
                 // (TsNumbered: set when the op is applied)
    double b;    // RSS peak bits / ts value
};

/// Appends one op to the calling thread's log, or to its active TaskCapture.
void append(const Op& op);

} // namespace detail

/// True when the registry records; checked by every entry point.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

/// Report destination requested via SNIM_OBS (None when disabled or unset).
ReportMode report_mode();

/// Interned handle of a monotonic counter.  Make it once per call site (a
/// namespace-scope or function-local static); ids live for the process.
class Counter {
public:
    explicit Counter(std::string_view name);
    uint32_t id() const { return id_; }

private:
    uint32_t id_;
};

/// Interned handle of a value histogram.
class Value {
public:
    explicit Value(std::string_view name);
    uint32_t id() const { return id_; }

private:
    uint32_t id_;
};

/// Interned handle of a phase accumulator (see ScopedTimer in obs/trace.hpp).
class Phase {
public:
    explicit Phase(std::string_view name);
    uint32_t id() const { return id_; }
    /// The phase path; views registry-owned, NUL-terminated storage, valid
    /// for the process (the live phase stacks hold its data()).
    std::string_view name() const { return name_; }

private:
    uint32_t id_;
    std::string_view name_;
};

/// Adds `delta` to the counter.
inline void count(const Counter& c, uint64_t delta = 1) {
    if (enabled())
        detail::append({detail::Op::Count, c.id(), std::bit_cast<double>(delta), 0.0});
}

/// Records one sample of the histogram.
inline void record_value(const Value& v, double value) {
    if (enabled()) detail::append({detail::Op::Value, v.id(), value, 0.0});
}

/// Interning wrappers: look the name up on every call.
void count(std::string_view name, uint64_t delta = 1);
void record_value(std::string_view name, double value);

/// Current value of a counter; 0 when absent.
uint64_t counter_value(std::string_view name);

/// Stats of a histogram; nullopt when absent.
std::optional<ValueStats> value_stats(std::string_view name);

/// Accumulated stats of a phase; zero-initialised when absent.
PhaseStats phase_stats(std::string_view name);
double phase_seconds(std::string_view name);
uint64_t phase_calls(std::string_view name);

/// Snapshots, sorted by name, for reporting.
std::vector<std::pair<std::string, uint64_t>> counters_snapshot();
std::vector<std::pair<std::string, ValueStats>> values_snapshot();
std::vector<std::pair<std::string, PhaseStats>> phases_snapshot();

/// The phase tree implied by the '/'-separated phase names.  The root is a
/// structural node with empty name holding the top-level phases.
PhaseNode phase_tree();

/// Clears every counter, histogram, phase and channel, and drops the
/// calling thread's unapplied ops (the enabled flag and interned handles
/// are kept).
void reset();

/// Buffers the ops one parallel task records so they can be applied to the
/// registry later, in deterministic task order.  Used by
/// obs::parallel_tasks: each worker records through a CaptureScope, and the
/// sweep owner commits the captures in index order after joining — the
/// registry then holds exactly what a serial run would have produced,
/// independent of thread count and scheduling.
class TaskCapture {
public:
    /// Applies the buffered ops to the registry after the calling thread's
    /// own unapplied ops, or appends them to the calling thread's active
    /// capture, which is what makes nested parallel regions compose.
    /// Clears the buffer.
    void commit();

    bool empty() const { return ops_.empty(); }

private:
    friend void detail::append(const detail::Op& op);
    void push(const detail::Op& op);
    std::vector<detail::Op> ops_;
};

/// RAII: while alive, every obs recording made on THIS thread goes into the
/// given TaskCapture instead of the thread's log.  Scopes nest per thread
/// (the previous capture is restored on destruction).
class CaptureScope {
public:
    explicit CaptureScope(TaskCapture& cap);
    ~CaptureScope();
    CaptureScope(const CaptureScope&) = delete;
    CaptureScope& operator=(const CaptureScope&) = delete;

private:
    TaskCapture* prev_;
};

} // namespace snim::obs
