// Time-series channels: the obs registry's third data kind, next to counters
// and value histograms.  A channel records (time, value) samples — solver
// health per accepted transient step, residual per Newton iteration, pivot
// magnitude per factorization — into a fixed-capacity decimating buffer, so
// a million-step transient costs bounded memory while the recorded shape of
// the run survives.
//
// Decimation policy: each channel keeps at most kTimeSeriesCapacity samples.
// When the buffer fills, every second stored sample is dropped in place and
// the acceptance stride doubles, so older history thins out uniformly while
// recent samples stay dense-ish.  Invariants the snapshot guarantees:
//
//   * the FIRST sample ever offered is always present,
//   * the LAST sample ever offered is always present (appended on snapshot
//     when the stride skipped it),
//   * time stays monotone non-decreasing when the producer's time is.
//
// Channels live in the obs registry and are recorded like its other kinds:
// a call site interns an obs::Channel handle (name plus the unit its
// samples carry) once, and ts_append through it appends one op to the
// calling thread's log (obs/registry.hpp).  Decimation and finiteness
// filtering happen when the log is applied, in recording order.  Appends are
// no-ops while the registry is disabled.  Non-finite values are never
// stored: they bump the "obs/ts_nonfinite_dropped" counter instead, so NaN
// telemetry cannot corrupt a VCD or trace file (the engines raise a
// structured diagnostic on non-finite *solution* data before it ever
// reaches a channel).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"

namespace snim::obs {

/// Hard per-channel sample budget after decimation.
inline constexpr size_t kTimeSeriesCapacity = 4096;

/// Snapshot of one channel.
struct TimeSeries {
    std::string name;
    std::string unit;           // free-form ("iters", "V", "1"), see Channel
    std::vector<double> time;   // sample abscissa (seconds, iteration index, Hz...)
    std::vector<double> value;
    uint64_t offered = 0;       // samples offered, before decimation
    uint64_t stride = 1;        // final acceptance stride (1 = nothing dropped)
};

/// Interned handle of a channel and the unit its samples carry.  A
/// channel's unit is the first non-empty one any of its handles named.
class Channel {
public:
    explicit Channel(std::string_view name, std::string_view unit = {});
    uint32_t id() const { return id_; }

private:
    uint32_t id_;
};

/// Appends one sample to the channel.
inline void ts_append(const Channel& ch, double t, double value) {
    if (enabled()) detail::append({detail::Op::Ts, ch.id(), t, value});
}

/// Appends one sample whose abscissa is its number among the samples
/// ever applied to the channel in this process (1, 2, ...), assigned when
/// the log is applied rather than when the sample is recorded.
/// parallel_tasks applies task captures in index order, so the numbering
/// is the serial run's for any thread count.  The count survives
/// obs::reset(), which keeps the channel monotone across repeated runs.
inline void ts_append_numbered(const Channel& ch, double value) {
    if (enabled()) detail::append({detail::Op::TsNumbered, ch.id(), 0.0, value});
}

/// Interning wrapper: looks the channel up on every call.
void ts_append(std::string_view channel, double t, double value,
               std::string_view unit = {});

/// Snapshot of one channel; nullopt when it holds no sample.
std::optional<TimeSeries> ts_get(std::string_view channel);

/// Snapshots of every channel holding a sample, sorted by name.
std::vector<TimeSeries> ts_snapshot();

} // namespace snim::obs
