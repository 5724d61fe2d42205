// RAII phase tracers feeding the obs registry.
//
// ScopedTimer measures the inclusive wall time of one phase; nested timers
// with '/'-separated names ("sim/transient", "sim/transient/newton") form
// the phase tree rendered by obs/report.  A call site passes an interned
// obs::Phase handle, so a recorded interval is one op appended to the
// thread's log (obs/registry.hpp), and the live phase stack holds the
// handle's registry-owned name.  Two timing policies:
//
//   Timing::WhenEnabled (default) — the constructor loads the enabled flag
//     once; when observability is off no clock is read and the destructor
//     is a branch on a bool.  Use this on hot paths (per-factor, per-step).
//   Timing::Always — the clock is always read so elapsed()/stop() return
//     real durations even when recording is off; recording still only
//     happens when enabled.  Use this for coarse once-per-run phases whose
//     duration feeds a public result field (extraction seconds).
//
// Resource attribution: constructing with Rss::Track additionally samples
// the process RSS at entry and exit (obs/resources) and records the growth
// and peak next to the phase's wall time, so the phase tree answers "which
// stage allocated the memory".  Sampling reads /proc once per end, so only
// coarse once-per-run phases should track — never per-step timers.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>

#include "obs/phasestack.hpp"
#include "obs/registry.hpp"
#include "obs/resources.hpp"

namespace snim::obs {

enum class Timing { WhenEnabled, Always };
enum class Rss { Off, Track };

class ScopedTimer {
public:
    explicit ScopedTimer(const Phase& phase, Timing timing = Timing::WhenEnabled,
                         Rss rss = Rss::Off)
        : id_(phase.id()), record_(enabled()) {
        timing_ = record_ || timing == Timing::Always;
        track_rss_ = record_ && rss == Rss::Track;
        if (track_rss_) rss_start_ = sample_resources().rss_bytes;
        if (timing_) start_ = Clock::now();
        // Live phase stack for the sampling profiler / watchdog / crash
        // handler; one relaxed load when nothing live is running.
        if (phase_stack::enabled()) stack_pushed_ = phase_stack::push(phase);
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    ~ScopedTimer() { stop(); }

    /// Seconds since construction (0 under Timing::WhenEnabled + disabled).
    double elapsed() const {
        if (!timing_) return 0.0;
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /// Ends the phase early and returns its duration; idempotent.
    double stop() {
        if (stopped_) return last_;
        stopped_ = true;
        last_ = elapsed();
        if (stack_pushed_) {
            phase_stack::pop();
            stack_pushed_ = false;
        }
        if (record_ && enabled()) detail::append({detail::Op::Phase, id_, last_, 0.0});
        if (track_rss_ && enabled()) {
            const ResourceSample end = sample_resources();
            const int64_t delta = static_cast<int64_t>(end.rss_bytes) -
                                  static_cast<int64_t>(rss_start_);
            detail::append({detail::Op::PhaseRss, id_, std::bit_cast<double>(delta),
                            std::bit_cast<double>(end.peak_rss_bytes)});
        }
        return last_;
    }

private:
    using Clock = std::chrono::steady_clock;

    uint32_t id_;
    Clock::time_point start_;
    bool record_;
    bool timing_ = false;
    bool track_rss_ = false;
    bool stack_pushed_ = false;
    bool stopped_ = false;
    double last_ = 0.0;
    uint64_t rss_start_ = 0;
};

} // namespace snim::obs
