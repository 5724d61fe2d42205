// Machine-speed probe for the paper-flow benchmark.
//
// The shared host's speed drifts by tens of percent over minutes, and a
// whole workload drifts with it.  The probe times three fixed kernels,
// none of them snim code: a dependent floating-point chain (latency), eight
// independent accumulators (throughput) and matrix-vector sweeps over a
// 3-D grid in compressed-row form (the cache and memory shape of the
// substrate solve).  It is built as its own library so that no compile
// option of the snim targets reaches it.
#pragma once

namespace perfbench {

/// Geometric mean of the three kernel times, in seconds (about 0.05 s).
double probe_seconds();

} // namespace perfbench
