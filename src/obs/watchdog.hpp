// Hang watchdog: a monitor thread that notices when the solver stops
// making forward progress and says so while the process is still alive.
//
// "Progress" is the real-clock activity timestamp maintained by obs/progress
// (every ProgressScope open/advance and note_progress_activity() call).
// The watchdog ages it on a dedicated thread:
//
//   age >= stall_s  ->  one {"comp":"watchdog","code":"stall"} journal
//                       event carrying the live phase stacks, innermost
//                       progress scope and pool size — enough to tell a
//                       slow Newton ladder from a deadlock;
//   age >= hang_s   ->  a snim_watchdog_*.json bundle (phase stacks,
//                       progress, RSS, plus the manifest, registry
//                       snapshot and event-journal tail obs::write_bundle
//                       adds) and, when abort_on_hang is set, a
//                       deliberate std::abort() so CI jobs fail loudly
//                       with the bundle on disk instead of timing out;
//   recovery        ->  {"code":"recovered"} once activity resumes.
//
// hang_s defaults to 4 * stall_s.  Starting the watchdog activates the
// event journal and phase-stack tracking (there is nothing to report
// otherwise).  The activity clock is always the real monotonic clock —
// set_heartbeat_clock() fakes cannot trip or mask a stall.
//
// Env: SNIM_WATCHDOG=stall_s[,hang_s[,abort]] (see events.hpp
// init_live_from_env); the bundle lands in obs::set_bundle_dir's directory.
#pragma once

#include <cstdint>
#include <string_view>

namespace snim::obs {

struct WatchdogOptions {
    double stall_s = 30.0;    // quiet seconds before a stall event
    double hang_s = 0.0;      // quiet seconds before a bundle; 0 = 4*stall_s
    bool abort_on_hang = false;
};

/// Parses a SNIM_WATCHDOG value: exactly `stall[,hang[,abort]]` with finite
/// seconds > 0.  Anything else ("30x", "30,60,abrt", "nan", "1e999")
/// raises a snim::Error naming the spec and the offending field.
WatchdogOptions parse_watchdog_spec(std::string_view spec);

/// Starts (or reconfigures) the monitor thread.  Raises snim::Error on a
/// stall_s that is not finite and > 0, or a non-finite hang_s.  Idempotent;
/// activates the event journal and phase-stack tracking.
void start_watchdog(const WatchdogOptions& options = {});

/// Stops and joins the monitor thread.  Safe when not running.
void stop_watchdog();

/// Stall events emitted since process start (recoveries do not reset it).
uint64_t watchdog_stall_count();

} // namespace snim::obs
