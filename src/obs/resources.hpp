// Resource attribution: process memory sampling for the phase tree.
//
// current_rss_bytes()/peak_rss_bytes() read the resident-set size and its
// process-lifetime high-water mark (/proc/self/status VmRSS/VmHWM on Linux,
// getrusage fallback elsewhere).  obs::ScopedTimer samples them around a
// phase when constructed with Rss::Track, so the phase tree reports wall
// time AND memory growth per phase; the byte counters stamped by numeric/
// (matrix storage) and substrate/ (mesh storage) attribute the growth to
// the data structures that caused it.
//
// Sampling costs a /proc read (~µs), so tracking is opt-in per timer and
// only the coarse once-per-run phases (flow stages, engine top levels)
// request it — per-step hot-path timers never sample.
#pragma once

#include <cstdint>

namespace snim::obs {

/// One memory sample.  peak is monotone non-decreasing over the process
/// lifetime (the kernel's high-water mark); current moves both ways.
struct ResourceSample {
    uint64_t rss_bytes = 0;
    uint64_t peak_rss_bytes = 0;
};

/// Samples both values with one /proc read; zeros when unavailable.
ResourceSample sample_resources();

/// Convenience single-value reads.
uint64_t current_rss_bytes();
uint64_t peak_rss_bytes();

} // namespace snim::obs
