// Deterministic fault injection: named fault points compiled into the
// solver engines so tests (and operators chasing a heisenbug) can force
// every recovery and diagnosis path on demand.
//
// A fault point is a string like "tran.step.fail" placed at the exact spot
// where the real failure would originate (a singular LU, a NaN update, a
// Newton stall).  Engines ask `fault::fires(point)` on every pass through
// the point; each query increments a per-point counter, and the fault fires
// when that counter falls inside an armed window [at, at + count).  Firing
// is therefore a pure function of the query sequence — two runs with the
// same armed faults take bit-identical paths, which is what lets the
// recovery tests assert full waveform determinism.
//
// Arming:
//   * API: fault::arm({.point = "tran.step.fail", .at = 51, .count = 2});
//   * env: SNIM_FAULT=tran.step.fail@51x2,mor.cg.fail  (parsed once, on the
//     first framework use; malformed entries are warned about and skipped).
//     `@at` defaults to 1, `xcount` to 1; `x-1` keeps a window open forever.
//
// Cost: one relaxed atomic load per query while nothing is armed.  Every
// build compiles the hooks in; arming (API or SNIM_FAULT) is the only switch.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace snim::fault {

/// One armed fault window: fire on queries at, at+1, ..., at+count-1 of
/// `point` (1-based; count < 0 keeps firing forever once reached).
struct FaultSpec {
    std::string point;
    long at = 1;
    long count = 1;
};

/// Parses "point[@at][xcount]" (e.g. "tran.step.fail@51x2"); raises
/// snim::Error on malformed input.
FaultSpec parse_spec(std::string_view text);

/// Arms one fault window.  Windows on the same point accumulate.
void arm(const FaultSpec& spec);

/// Arms a comma-separated spec list (the SNIM_FAULT syntax); raises on the
/// first malformed entry.
void arm_list(std::string_view specs);

/// Disarms everything and zeroes every per-point query/trip counter.
void clear();

/// True when the current query of `point` falls inside an armed window.
/// Counts the query even when nothing matches, so firing positions stay
/// stable while faults on other points are added or removed.
bool fires(std::string_view point);

/// Queries seen / faults fired at `point` since the last clear().
long queries(std::string_view point);
long trips(std::string_view point);

/// Every armed window (for diagnostics output and tests).
std::vector<FaultSpec> armed();

/// How long a fired "tran.slow_step" fault stalls the solver thread, in
/// seconds.  Default 0.25 s, overridable via SNIM_FAULT_SLOW_MS (read once)
/// or set_slow_step_seconds(); the watchdog tests shrink their stall budget
/// below this so one fired window reliably trips a stall.  Sleeping never
/// changes numeric results — only wall time.
double slow_step_seconds();
void set_slow_step_seconds(double seconds);

} // namespace snim::fault
