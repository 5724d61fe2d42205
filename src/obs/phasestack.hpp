// Per-thread live phase stacks: who is doing what, right now.
//
// The obs registry stores *aggregated* phase times; this module tracks the
// *current* stack of open ScopedTimer phases per thread, in a form that two
// asynchronous consumers can read safely:
//
//   * the sampling profiler (obs/profiler) reads all stacks at ~200 Hz and
//     folds them into flamegraph counts,
//   * the crash last-gasp handler (obs/lastgasp) dumps them with nothing
//     but write(2) from inside a signal handler.
//
// To make both possible, a frame is the pointer to its phase's interned
// name (obs::Phase storage: NUL-terminated and owned by the registry for
// the life of the process), held in a per-slot atomic, and all indices are
// atomics.  A thread claims one of kMaxThreads slots on its first push and
// releases it at thread exit, so short-lived pool workers recycle slots.
//
// Tracking is off by default: push() is one relaxed load when disabled, so
// per-Newton-iteration timers stay cheap.  start_profiler / start_watchdog
// / install_last_gasp enable it.  Reader caveat: a sampler racing a push or
// pop can see a stack one frame short or long, or a frame that was just
// replaced; every name it reads is still a whole interned name, never a
// torn copy.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace snim::obs::phase_stack {

inline constexpr int kMaxDepth = 32;    // frames per thread
inline constexpr int kMaxThreads = 64;  // concurrently tracked threads

/// One thread's stack as copied out by sample_all().
struct ThreadStack {
    int slot = -1;
    std::vector<std::string> frames; // outermost first
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// One relaxed load; ScopedTimer checks this before calling push().
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on);

/// Pushes `phase`'s interned name onto the calling thread's stack.
/// Returns false (and records nothing) when disabled, out of slots, or past
/// kMaxDepth — the caller must pop() only after a true return.
bool push(const Phase& phase);
void pop();

/// Depth of the calling thread's stack (0 when it never pushed).
int depth();

/// Snapshot of every live thread stack (slots with depth > 0).  Not
/// async-signal-safe; profiler/watchdog threads use this.
std::vector<ThreadStack> sample_all();

/// Async-signal-safe: writes every live stack to `fd` as one JSONL line per
/// thread: {"phase_stack":{"slot":3,"stack":"a;b;c"}}.  Returns the number
/// of stacks written.  Only write(2) and byte copies — last-gasp safe.
size_t write_stacks_fd(int fd);

} // namespace snim::obs::phase_stack
