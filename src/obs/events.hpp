// Structured event journal: the live-run half of the observability layer.
//
// obs::event(level, component, code, {kv...}) appends one bounded-size JSONL
// record to a lock-free ring buffer.  Each ring slot holds the *serialised*
// line, so readers need no allocation to recover it — the crash last-gasp
// handler (obs/lastgasp) can dump the tail with nothing but write(2), and
// diagnosis bundles / BENCH reports embed the tail as parsed JSON.
//
// Record shape (one line, <= kEventSlotBytes including the NUL):
//
//   {"seq":17,"ts":1.203450,"lvl":"info","comp":"progress","code":"heartbeat",
//    "kv":{"phase":"sim/transient","pct":42.5,"eta_s":1.93}}
//
//   * seq — global 1-based emission index (gaps after overwrite are how a
//     reader detects that the ring wrapped),
//   * ts  — seconds since the journal was activated (monotonic clock),
//   * lvl/comp/code — severity, producing subsystem, machine-stable event
//     name; kv — free-form attachments (numbers, strings, bools).
//
// The journal is OFF by default: event() costs one relaxed atomic load and
// returns.  It activates when a streaming sink is configured (SNIM_EVENTS=
// path|stderr|-, or set_event_stream_path), when the watchdog starts, or
// explicitly via set_events_active(true).  While active, every util::log
// Warn/Info/Debug is mirrored into the journal as a {"comp":"log"} event via
// the log-mirror tap, so no subsystem needs touching to become observable.
//
// Determinism: events carry wall-clock data and are NEVER part of simulation
// results or the obs registry; parallel workers write to the ring directly
// (no TaskCapture indirection) because journal order is allowed to reflect
// real time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace snim::obs {

enum class EventLevel { Debug = 0, Info = 1, Warn = 2, Error = 3 };

inline const char* event_level_name(EventLevel level) {
    switch (level) {
        case EventLevel::Debug: return "debug";
        case EventLevel::Info: return "info";
        case EventLevel::Warn: return "warn";
        case EventLevel::Error: return "error";
    }
    return "?";
}

/// One key/value attachment.  Keys must be string literals (or otherwise
/// outlive the call); values are copied.
struct EventKv {
    enum class Kind { Num, Str, Bool };

    EventKv(const char* k, double v) : key(k), kind(Kind::Num), num(v) {}
    EventKv(const char* k, int v) : key(k), kind(Kind::Num), num(v) {}
    EventKv(const char* k, long v) : key(k), kind(Kind::Num), num(static_cast<double>(v)) {}
    EventKv(const char* k, unsigned v) : key(k), kind(Kind::Num), num(v) {}
    EventKv(const char* k, uint64_t v)
        : key(k), kind(Kind::Num), num(static_cast<double>(v)) {}
    EventKv(const char* k, bool v) : key(k), kind(Kind::Bool), flag(v) {}
    EventKv(const char* k, std::string_view v) : key(k), kind(Kind::Str), str(v) {}
    EventKv(const char* k, const char* v) : key(k), kind(Kind::Str), str(v) {}

    const char* key;
    Kind kind;
    double num = 0.0;
    bool flag = false;
    std::string str;
};

/// Ring geometry.  Slots hold full serialised lines; oversize records are
/// re-rendered without their kv payload and flagged {"truncated":true}.
inline constexpr size_t kEventRingSlots = 512; // power of two
inline constexpr size_t kEventSlotBytes = 448; // line + NUL

/// True while the journal records (one relaxed load — hot-path safe).
bool events_active();
void set_events_active(bool on);

/// Appends one record to the ring (and the streaming sink, when set).
/// Debug-level events are dropped unless the util::log level is Debug.
void event(EventLevel level, std::string_view component, std::string_view code,
           std::initializer_list<EventKv> kv = {});

/// Streams every subsequent event as one JSONL line to `path` ("stderr" or
/// "-" select stderr; "" closes the stream).  Opening a file sink activates
/// the journal.  Raises snim::Error when the file cannot be opened.
void set_event_stream_path(const std::string& path);
void close_event_stream();

/// Last `max_count` serialised records, oldest first.  Records overwritten
/// or mid-write are skipped, so the result is always parseable line-wise.
std::vector<std::string> event_tail(size_t max_count = kEventRingSlots);

/// Total records emitted since process start (including overwritten ones).
uint64_t event_count();

/// Seconds since the journal clock started (first activation).
double event_now_s();

/// Drops every ring record and resets the sequence counter; the active
/// flag and stream are kept.  Test isolation only — never call mid-run.
void reset_events_for_test();

/// Reads SNIM_EVENTS / SNIM_PROFILE / SNIM_WATCHDOG / SNIM_LASTGASP once
/// and wires up the requested live-telemetry pieces (journal stream,
/// sampling profiler, hang watchdog, crash handlers) — the one way to arm
/// them; a malformed SNIM_WATCHDOG is skipped with a warning.  Idempotent;
/// cheap when none are set.  Entry-point binaries call this first thing.
void init_live_from_env();

/// Tears down what init_live_from_env started: stops the profiler and
/// writes the SNIM_PROFILE file from its counts (frozen by the first
/// stop_profiler(), possibly earlier), stops the watchdog thread, flushes
/// and closes the event stream.  Idempotent; also registered atexit by
/// init when any env-driven piece activated.
void shutdown_live();

namespace detail {
/// Async-signal-safe: write(2)s the ring's live records to `fd`, oldest
/// first, one line each.  Returns the number of records written.  Used by
/// the crash last-gasp handler — no locks, no allocation.
size_t write_ring_tail_fd(int fd, size_t max_count);
} // namespace detail

} // namespace snim::obs
