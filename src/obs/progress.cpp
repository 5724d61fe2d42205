#include "obs/progress.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "obs/certify.hpp"
#include "obs/events.hpp"
#include "obs/resources.hpp"

namespace snim::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::time_point real_epoch() {
    static const SteadyClock::time_point t0 = SteadyClock::now();
    return t0;
}

double real_now_s() {
    return std::chrono::duration<double>(SteadyClock::now() - real_epoch()).count();
}

std::atomic<HeartbeatClock> g_clock{nullptr};

/// Heartbeat time: fakeable for cadence tests.
double beat_now_s() {
    const HeartbeatClock c = g_clock.load(std::memory_order_relaxed);
    return c ? c() : real_now_s();
}

std::atomic<double> g_interval{1.0};
std::atomic<double> g_last_beat{-1.0e18};
std::atomic<uint64_t> g_heartbeats{0};

/// Watchdog activity stamp: ALWAYS the real clock (ns since real_epoch(),
/// 0 = never), so fake-clock tests cannot mask or fabricate a stall.
std::atomic<int64_t> g_last_activity_ns{0};

std::atomic<bool> g_has_observer{false};

struct ObserverBox {
    std::mutex mutex;
    HeartbeatObserver observer;
};

ObserverBox& observer_box() {
    static ObserverBox* b = new ObserverBox;
    return *b;
}

} // namespace

struct ProgressScope::Impl {
    std::string phase;
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> total{0};
    double start_s = 0.0;
};

namespace {

/// Live scopes in opening order; innermost = most recently opened survivor.
/// Scopes on different threads interleave freely, so removal is by value,
/// not a strict stack pop.
struct ScopeRegistry {
    std::mutex mutex;
    std::vector<ProgressScope::Impl*> live;
};

ScopeRegistry& scopes() {
    static ScopeRegistry* r = new ScopeRegistry;
    return *r;
}

HeartbeatInfo snapshot_innermost(double now_s) {
    HeartbeatInfo info;
    ScopeRegistry& r = scopes();
    std::lock_guard<std::mutex> lock(r.mutex);
    info.depth = static_cast<int>(r.live.size());
    if (r.live.empty()) return info;
    const ProgressScope::Impl* inner = r.live.back();
    info.phase = inner->phase;
    info.done = inner->done.load(std::memory_order_relaxed);
    info.total = inner->total.load(std::memory_order_relaxed);
    info.elapsed_s = std::max(0.0, now_s - inner->start_s);
    if (info.total > 0) {
        const uint64_t done = std::min(info.done, info.total);
        info.percent = 100.0 * static_cast<double>(done) /
                       static_cast<double>(info.total);
        if (info.done > 0 && info.total >= info.done)
            info.eta_s = info.elapsed_s *
                         static_cast<double>(info.total - info.done) /
                         static_cast<double>(info.done);
    }
    return info;
}

void maybe_heartbeat() {
    const double now = beat_now_s();
    double last = g_last_beat.load(std::memory_order_relaxed);
    const double interval = g_interval.load(std::memory_order_relaxed);
    if (now - last < interval) return;
    // One winner per interval across all threads.
    if (!g_last_beat.compare_exchange_strong(last, now, std::memory_order_relaxed))
        return;

    HeartbeatInfo info = snapshot_innermost(now);
    info.rss_bytes = current_rss_bytes();
    g_heartbeats.fetch_add(1, std::memory_order_relaxed);

    event(EventLevel::Info, "progress", "heartbeat",
          {{"phase", info.phase},
           {"done", info.done},
           {"total", info.total},
           {"pct", info.percent},
           {"elapsed_s", info.elapsed_s},
           {"eta_s", info.eta_s},
           {"rss_mb", static_cast<double>(info.rss_bytes) / (1024.0 * 1024.0)},
           {"depth", info.depth},
           // Numerical health at a glance: certificate breaches since the
           // last registry reset (0 on a clean run).
           {"cert_breaches", certificate_breach_count()}});

    HeartbeatObserver observer;
    {
        ObserverBox& b = observer_box();
        std::lock_guard<std::mutex> lock(b.mutex);
        observer = b.observer;
    }
    if (observer) observer(info);
}

} // namespace

bool progress_active() {
    return events_active() || g_has_observer.load(std::memory_order_relaxed);
}

ProgressScope::ProgressScope(std::string_view phase, uint64_t total_work) {
    if (!progress_active()) return;
    impl_ = new Impl;
    impl_->phase.assign(phase);
    impl_->total.store(total_work, std::memory_order_relaxed);
    impl_->start_s = beat_now_s();
    {
        ScopeRegistry& r = scopes();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.live.push_back(impl_);
    }
    note_progress_activity();
}

ProgressScope::~ProgressScope() {
    if (!impl_) return;
    {
        ScopeRegistry& r = scopes();
        std::lock_guard<std::mutex> lock(r.mutex);
        auto it = std::find(r.live.begin(), r.live.end(), impl_);
        if (it != r.live.end()) r.live.erase(it);
    }
    delete impl_;
}

void ProgressScope::advance(uint64_t n) {
    if (!impl_) return;
    impl_->done.fetch_add(n, std::memory_order_relaxed);
    note_progress_activity();
    maybe_heartbeat();
}

void ProgressScope::add_total(uint64_t n) {
    if (!impl_) return;
    impl_->total.fetch_add(n, std::memory_order_relaxed);
}

HeartbeatInfo current_progress() { return snapshot_innermost(beat_now_s()); }

void set_heartbeat_interval(double seconds) {
    g_interval.store(seconds < 0.01 ? 0.01 : seconds, std::memory_order_relaxed);
}

double heartbeat_interval() { return g_interval.load(std::memory_order_relaxed); }

HeartbeatObserver set_heartbeat_observer(HeartbeatObserver observer) {
    ObserverBox& b = observer_box();
    std::lock_guard<std::mutex> lock(b.mutex);
    HeartbeatObserver prev = std::move(b.observer);
    b.observer = std::move(observer);
    g_has_observer.store(static_cast<bool>(b.observer), std::memory_order_relaxed);
    return prev;
}

uint64_t heartbeat_count() { return g_heartbeats.load(std::memory_order_relaxed); }

void set_heartbeat_clock(HeartbeatClock clock) {
    g_clock.store(clock, std::memory_order_relaxed);
}

double last_activity_age_s() {
    const int64_t ns = g_last_activity_ns.load(std::memory_order_relaxed);
    if (ns == 0) return 1.0e18; // never
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               SteadyClock::now() - real_epoch())
                               .count();
    return static_cast<double>(now_ns - ns) * 1e-9;
}

void note_progress_activity() {
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               SteadyClock::now() - real_epoch())
                               .count();
    // 0 is the "never" sentinel; the first nanosecond maps to 1.
    g_last_activity_ns.store(now_ns == 0 ? 1 : now_ns, std::memory_order_relaxed);
}

void reset_progress_for_test() {
    g_heartbeats.store(0, std::memory_order_relaxed);
    g_last_beat.store(-1.0e18, std::memory_order_relaxed);
    g_last_activity_ns.store(0, std::memory_order_relaxed);
}

} // namespace snim::obs
