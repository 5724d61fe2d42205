// Phase-stack sampling profiler: a wall-clock flamegraph of a run, built
// from the instrumentation the codebase already has.
//
// A timer thread wakes ~200 times a second, snapshots every live per-thread
// ScopedTimer stack (obs/phasestack), and folds each into a semicolon-joined
// key under a common "snim" root:
//
//   snim;bench/scenario;sim/transient;sim/transient/newton 1831
//
// That is exactly the "folded stacks" format flamegraph.pl and speedscope
// ingest, so `folded_text()` output (the SNIM_PROFILE file) feeds standard
// tooling directly; the same counts are embedded in BENCH reports.
//
// Compared to the registry's phase tree (exact inclusive timings of every
// phase), sampling answers a different question — "where was the time when
// I looked?" — and keeps working when a phase never exits, which is what
// the watchdog cares about.  Sampling is statistical: a tick racing a push
// or pop may see that stack one frame short or long, but every frame name
// it reads is a whole interned phase name.
//
// Cost when running: one sample_all() per tick on the profiler thread; the
// solver threads pay only the (relaxed-load-gated) phase-stack pushes.
// Idle cost: zero — starting the profiler is what enables stack tracking.
// Env: SNIM_PROFILE=out.folded (see init_live_from_env).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.hpp"

namespace snim::obs {

/// Sampling rate of the profiler thread.
inline constexpr double kProfilerHz = 200.0;

/// Accumulated folded-stack counts.  `samples` counts every tick (idle
/// ticks fold to the bare "snim" root), so sum(counts) == samples.
struct FoldedProfile {
    uint64_t samples = 0;
    std::map<std::string, uint64_t> counts; // "snim;a;b" -> ticks observed
};

/// Starts the sampler thread (idempotent; restarting keeps accumulating
/// into the same counts) and enables phase-stack tracking.
void start_profiler();

/// Stops and joins the sampler thread.  Counts are kept for snapshotting.
void stop_profiler();

bool profiler_running();

/// Copy of the counts accumulated so far (callable while running).
FoldedProfile profiler_snapshot();

/// Drops all accumulated counts.  Test isolation / per-scenario resets.
void reset_profiler();

/// flamegraph.pl input: one "stack count" line per entry, sorted by stack.
std::string folded_text(const FoldedProfile& profile);

/// {"hz":...,"samples":...,"stacks":{"snim;a;b":n,...}} — the form
/// embedded in BENCH reports.
Json profile_json(const FoldedProfile& profile);

} // namespace snim::obs
