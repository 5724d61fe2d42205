// Progress reporting and once-per-interval heartbeats.
//
// Long-running loops (the transient time loop, AC frequency chunks, bench
// corner sweeps) open a ProgressScope naming their phase path and total
// work count, then advance() it per unit of work:
//
//   obs::ProgressScope progress("sim/transient", nsteps);
//   for (...) { ...; progress.advance(); }
//
// advance() is cheap (one relaxed add + one clock read) and, at most once
// per heartbeat interval (default 1 s), folds the innermost live scope into
// a HeartbeatInfo: phase path, done/total, percent, elapsed, ETA, and the
// current RSS.  Each heartbeat is emitted as a {"comp":"progress",
// "code":"heartbeat"} journal event and handed to the optional observer
// (snim_bench uses it for a live single-line TTY status).
//
// Scopes nest (corners → transient → step); the heartbeat always describes
// the innermost open scope, which is the one whose percent actually moves.
// Every advance also bumps a real-monotonic activity timestamp that the
// hang watchdog (obs/watchdog) ages — that timestamp deliberately ignores
// set_heartbeat_clock(), so cadence tests with a fake clock cannot trip the
// watchdog.
//
// Determinism: progress never touches the obs registry or simulation state;
// heartbeats carry wall-clock data only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace snim::obs {

/// One heartbeat snapshot: the innermost live scope at emission time.
struct HeartbeatInfo {
    std::string phase;      // e.g. "sim/transient"
    uint64_t done = 0;
    uint64_t total = 0;     // 0 when unknown
    double percent = -1.0;  // 0..100, -1 when total unknown
    double elapsed_s = 0.0; // since the scope opened
    double eta_s = -1.0;    // remaining estimate, -1 when unknown
    size_t rss_bytes = 0;   // 0 when unavailable
    int depth = 0;          // how many scopes are open
};

/// RAII progress reporter for one phase of work.  Constructing when
/// progress is inactive (journal off and no observer) costs one relaxed
/// load and makes every method a no-op.  Scopes must be destroyed on the
/// thread that made them, in LIFO order (normal RAII nesting).
class ProgressScope {
public:
    ProgressScope(std::string_view phase, uint64_t total_work);
    ~ProgressScope();

    ProgressScope(const ProgressScope&) = delete;
    ProgressScope& operator=(const ProgressScope&) = delete;

    /// Records `n` units done and emits a heartbeat if the interval has
    /// elapsed since the last one (any scope, any thread).
    void advance(uint64_t n = 1);

    struct Impl; // implementation detail, public only for the registry

private:
    Impl* impl_ = nullptr; // null when progress was inactive at construction
};

/// True when ProgressScopes record (journal active or observer installed).
bool progress_active();

/// Innermost open scope right now (phase empty when none).  Watchdog and
/// status displays use this; cheap enough for once-per-second polling.
HeartbeatInfo current_progress();

/// Heartbeat cadence in seconds (default 1.0; clamped to >= 0.01).
void set_heartbeat_interval(double seconds);

/// Observer called from whichever thread emitted the heartbeat.  Keep it
/// cheap and thread-safe; installing one activates progress recording.
/// Returns the previous observer.
using HeartbeatObserver = std::function<void(const HeartbeatInfo&)>;
HeartbeatObserver set_heartbeat_observer(HeartbeatObserver observer);

/// Total heartbeats emitted since process start (tests assert cadence).
uint64_t heartbeat_count();

/// Replaces the clock used for heartbeat cadence/elapsed/ETA with a fake
/// (seconds; monotone non-decreasing).  nullptr restores the real clock.
/// The watchdog activity timestamp is NOT affected.  Tests only.
using HeartbeatClock = double (*)();
void set_heartbeat_clock(HeartbeatClock clock);

/// Seconds (real monotonic clock) since the last sign of forward progress:
/// any ProgressScope advance/open, or an explicit note_progress_activity().
/// Returns a large value when nothing was ever recorded.
double last_activity_age_s();

/// Marks forward progress without a scope (e.g. an accepted Newton step
/// between progress units).  One relaxed store.
void note_progress_activity();

/// Zeroes heartbeat counters and the activity timestamp.  Test isolation.
void reset_progress_for_test();

} // namespace snim::obs
