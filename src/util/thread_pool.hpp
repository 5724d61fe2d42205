// Deterministic parallel sweep mechanics.
//
// ThreadPool::parallel_for_indexed runs fn(0..count-1) across worker threads
// with the caller participating.  Indices are claimed dynamically, so the
// *execution order* depends on scheduling — determinism is the caller's
// contract: write results only into slot i, merge anything order-sensitive
// in index order afterwards (obs::parallel_tasks does this for registry
// metrics).  Under that contract the output is bit-identical for any thread
// count.
//
// The process-wide default worker count is 1 — everything is serial unless
// the user opts in via SNIM_THREADS, set_default_thread_count, or the
// snim_bench --threads flag (which calls it).
#pragma once

#include <cstddef>
#include <functional>

namespace snim::util {

/// Default worker count for parallel sweeps: 1 unless SNIM_THREADS (read
/// once, on first use) or set_default_thread_count() says otherwise.
int default_thread_count();

/// Overrides the default; values are clamped to [1, 256].
void set_default_thread_count(int n);

class ThreadPool {
public:
    /// threads <= 0 selects default_thread_count().
    explicit ThreadPool(int threads = 0);

    int thread_count() const { return threads_; }

    /// Runs fn(i) for every i in [0, count); the calling thread participates
    /// and worker threads are joined before returning.  Every index runs
    /// even when one throws; the exception thrown at the LOWEST index is
    /// rethrown after the loop drains, so failure behaviour does not depend
    /// on scheduling (serial execution stops at that same index's throw).
    void parallel_for_indexed(size_t count, const std::function<void(size_t)>& fn) const;

private:
    int threads_ = 1;
};

} // namespace snim::util
