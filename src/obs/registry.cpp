#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/certify.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"

namespace snim::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

/// Histogram: exact count/sum/min/max plus a bounded reservoir sample for
/// quantiles, so a million-step transient cannot exhaust memory.  The
/// reservoir uses a deterministic per-histogram LCG, keeping reports
/// reproducible run to run.
struct Histogram {
    static constexpr size_t kReservoir = 4096;

    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> sample;
    uint64_t lcg = 0x9e3779b97f4a7c15ull;

    void add(double v) {
        if (count == 0) {
            min = max = v;
        } else {
            min = std::min(min, v);
            max = std::max(max, v);
        }
        ++count;
        sum += v;
        if (sample.size() < kReservoir) {
            sample.push_back(v);
        } else {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const uint64_t slot = (lcg >> 11) % count;
            if (slot < kReservoir) sample[static_cast<size_t>(slot)] = v;
        }
    }

    ValueStats stats() const {
        ValueStats s;
        s.count = count;
        s.sum = sum;
        s.min = min;
        s.max = max;
        s.mean = count ? sum / static_cast<double>(count) : 0.0;
        if (!sample.empty()) {
            std::vector<double> sorted = sample;
            std::sort(sorted.begin(), sorted.end());
            auto quantile = [&](double q) {
                const double pos = q * static_cast<double>(sorted.size() - 1);
                const size_t lo = static_cast<size_t>(pos);
                const size_t hi = std::min(lo + 1, sorted.size() - 1);
                const double frac = pos - static_cast<double>(lo);
                return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
            };
            s.p50 = quantile(0.50);
            s.p95 = quantile(0.95);
        }
        return s;
    }
};

/// One time-series channel's decimating buffer (policy in timeseries.hpp).
/// `stride` doubles every time the buffer fills; only every stride-th
/// offered sample is stored, plus the pending last sample kept aside so
/// snapshots always end on it.
struct ChannelBuf {
    std::vector<double> time;
    std::vector<double> value;
    uint64_t offered = 0;
    uint64_t stride = 1;
    double last_t = 0.0;
    double last_v = 0.0;

    void add(double t, double v) {
        if (offered % stride == 0) {
            time.push_back(t);
            value.push_back(v);
            if (time.size() >= kTimeSeriesCapacity) decimate();
        }
        last_t = t;
        last_v = v;
        ++offered;
    }

    void decimate() {
        size_t kept = 0;
        for (size_t i = 0; i < time.size(); i += 2) {
            time[kept] = time[i];
            value[kept] = value[i];
            ++kept;
        }
        time.resize(kept);
        value.resize(kept);
        stride *= 2;
    }

    TimeSeries snapshot(const std::string& name, const std::string& unit) const {
        TimeSeries s;
        s.name = name;
        s.unit = unit;
        s.time = time;
        s.value = value;
        s.offered = offered;
        s.stride = stride;
        // The stride may have skipped the most recent sample; a series that
        // does not end on the last offered point misreports where the run
        // stopped (the whole point of a post-mortem tail).
        if (offered > 0 && (s.time.empty() || s.time.back() != last_t ||
                            s.value.back() != last_v)) {
            s.time.push_back(last_t);
            s.value.push_back(last_v);
        }
        return s;
    }
};

struct CounterSlot {
    uint64_t value = 0;
    bool live = false; // recorded on since the last reset()
};

struct PhaseSlot {
    PhaseStats stats;
    bool live = false;
};

/// Name -> id table of one storage kind.  Names are never erased, so ids
/// and the name views Phase hands out stay valid for the process; the map
/// keeps snapshots name-sorted.
struct Names {
    std::map<std::string, uint32_t, std::less<>> ids;
    std::vector<const std::string*> by_id;

    /// Id of `name`, adding it (and calling `grow` once) when new.
    template <class Grow>
    uint32_t intern(std::string_view name, Grow&& grow) {
        auto it = ids.find(name);
        if (it == ids.end()) {
            it = ids.emplace(std::string(name), static_cast<uint32_t>(by_id.size())).first;
            by_id.push_back(&it->first);
            grow();
        }
        return it->second;
    }

    const uint32_t* find(std::string_view name) const {
        auto it = ids.find(name);
        return it == ids.end() ? nullptr : &it->second;
    }
};

/// Everything threads share, under `mu`.  Storage vectors are indexed by
/// handle id; a slot shows up in snapshots only while live (a histogram or
/// channel is live once it holds a sample).
struct Registry {
    std::mutex mu;
    ReportMode mode = ReportMode::None; // fixed when the registry is built

    Names counter_names, value_names, phase_names, channel_names;
    std::vector<CounterSlot> counters;
    std::vector<Histogram> values;
    std::vector<PhaseSlot> phases;
    std::vector<ChannelBuf> channels;
    std::vector<std::string> channel_units; // kept across reset(), like names
    std::vector<uint64_t> channel_numbered; // TsNumbered samples applied, kept across reset()
};

Registry& registry() {
    // Leaked on purpose: the atexit report writer, thread-exit flushes and
    // late ScopedTimer destructors must never race static destruction.
    static Registry* r = [] {
        Registry* reg = new Registry;
        if (const char* env = std::getenv("SNIM_OBS")) {
            const std::string v = env;
            if (v == "json") {
                reg->mode = ReportMode::Json;
            } else if (v == "1" || v == "on" || v == "text") {
                reg->mode = ReportMode::Text;
            }
            if (reg->mode != ReportMode::None)
                detail::g_enabled.store(true, std::memory_order_relaxed);
        }
        return reg;
    }();
    return *r;
}

// SNIM_OBS takes effect before main, so the inline enabled() needs no
// first-touch hook.
const bool g_env_read = (registry(), true);

/// Registers the end-of-process report the first time something records or
/// reads (not at static initialisation, so that every static the report
/// touches is built before it and destroyed after it).
void arm_env_report() {
    static const bool armed = [] {
        if (registry().mode != ReportMode::None) std::atexit(&write_env_report);
        return true;
    }();
    (void)armed;
}

/// A thread's bounded op log.  Constant-initialised and trivially
/// destructible, so a record is a plain TLS access with no guard; the
/// thread-exit flush hangs off a separate hook.
struct ThreadLog {
    detail::Op ops[kLogCapacity] = {};
    uint32_t n = 0;
    uint32_t limit = 1; // 1 until the first append has hooked thread exit
    TaskCapture* capture = nullptr;
};

thread_local ThreadLog tl_log;

// Interned before anything can record: applying a non-finite sample
// counts it here.
const Counter g_ts_nonfinite("obs/ts_nonfinite_dropped");

void apply_locked(Registry& r, const detail::Op* ops, size_t n) {
    for (size_t i = 0; i < n; ++i) {
        const detail::Op& op = ops[i];
        switch (op.kind) {
        case detail::Op::Count: {
            CounterSlot& c = r.counters[op.id];
            c.value += std::bit_cast<uint64_t>(op.a);
            c.live = true;
            break;
        }
        case detail::Op::Value: r.values[op.id].add(op.a); break;
        case detail::Op::Phase: {
            PhaseSlot& p = r.phases[op.id];
            ++p.stats.calls;
            p.stats.seconds += op.a;
            p.live = true;
            break;
        }
        case detail::Op::PhaseRss: {
            PhaseSlot& p = r.phases[op.id];
            ++p.stats.rss_samples;
            p.stats.rss_delta_bytes += std::bit_cast<int64_t>(op.a);
            p.stats.rss_peak_bytes =
                std::max(p.stats.rss_peak_bytes, std::bit_cast<uint64_t>(op.b));
            p.live = true;
            break;
        }
        case detail::Op::Ts:
        case detail::Op::TsNumbered: {
            const double t = op.kind == detail::Op::TsNumbered
                                 ? static_cast<double>(++r.channel_numbered[op.id])
                                 : op.a;
            if (!std::isfinite(t) || !std::isfinite(op.b)) {
                CounterSlot& c = r.counters[g_ts_nonfinite.id()];
                ++c.value;
                c.live = true;
                break;
            }
            r.channels[op.id].add(t, op.b);
            break;
        }
        }
    }
}

/// Applies the calling thread's log; callers hold r.mu.
void drain_locked(Registry& r) {
    ThreadLog& log = tl_log;
    apply_locked(r, log.ops, log.n);
    log.n = 0;
}

void flush_thread_log() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    drain_locked(r);
}

struct ExitFlush {
    ~ExitFlush() { flush_thread_log(); }
};

/// Slow path of append: the thread's first op hooks the thread-exit flush,
/// every later call means the log is full.
[[gnu::noinline]] void log_full(ThreadLog& log) {
    if (log.limit < kLogCapacity) {
        log.limit = kLogCapacity;
        thread_local ExitFlush hook;
        (void)hook;
        arm_env_report();
        return;
    }
    flush_thread_log();
}

/// Locks the registry for a read: applies the reader's own log first.
struct ReadLock {
    Registry& r;
    std::lock_guard<std::mutex> lock;
    ReadLock() : r(registry()), lock(r.mu) {
        arm_env_report();
        drain_locked(r);
    }
};

} // namespace

namespace detail {

void append(const Op& op) {
    ThreadLog& log = tl_log;
    if (log.capture) [[unlikely]] {
        log.capture->push(op);
        return;
    }
    log.ops[log.n] = op;
    if (++log.n >= log.limit) [[unlikely]]
        log_full(log);
}

} // namespace detail

Counter::Counter(std::string_view name) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    id_ = r.counter_names.intern(name, [&] { r.counters.emplace_back(); });
}

Value::Value(std::string_view name) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    id_ = r.value_names.intern(name, [&] { r.values.emplace_back(); });
}

Phase::Phase(std::string_view name) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    id_ = r.phase_names.intern(name, [&] { r.phases.emplace_back(); });
    name_ = *r.phase_names.by_id[id_];
}

Channel::Channel(std::string_view name, std::string_view unit) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    id_ = r.channel_names.intern(name, [&] {
        r.channels.emplace_back();
        r.channel_units.emplace_back();
        r.channel_numbered.emplace_back(0);
    });
    if (r.channel_units[id_].empty()) r.channel_units[id_] = unit;
}

CaptureScope::CaptureScope(TaskCapture& cap) : prev_(tl_log.capture) { tl_log.capture = &cap; }
CaptureScope::~CaptureScope() { tl_log.capture = prev_; }

// Out of line: keeps the vector growth off append's fast path.
[[gnu::noinline]] void TaskCapture::push(const detail::Op& op) { ops_.push_back(op); }

void TaskCapture::commit() {
    ThreadLog& log = tl_log;
    if (log.capture) {
        log.capture->ops_.insert(log.capture->ops_.end(), ops_.begin(), ops_.end());
    } else {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        drain_locked(r);
        apply_locked(r, ops_.data(), ops_.size());
    }
    ops_.clear();
}

void set_enabled(bool on) {
    arm_env_report();
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

ReportMode report_mode() { return registry().mode; }

void count(std::string_view name, uint64_t delta) {
    if (enabled()) count(Counter(name), delta);
}

void record_value(std::string_view name, double value) {
    if (enabled()) record_value(Value(name), value);
}

void ts_append(std::string_view channel, double t, double value, std::string_view unit) {
    if (enabled()) ts_append(Channel(channel, unit), t, value);
}

uint64_t counter_value(std::string_view name) {
    ReadLock rl;
    const uint32_t* id = rl.r.counter_names.find(name);
    return id ? rl.r.counters[*id].value : 0;
}

std::optional<ValueStats> value_stats(std::string_view name) {
    ReadLock rl;
    const uint32_t* id = rl.r.value_names.find(name);
    if (!id || rl.r.values[*id].count == 0) return std::nullopt;
    return rl.r.values[*id].stats();
}

PhaseStats phase_stats(std::string_view name) {
    ReadLock rl;
    const uint32_t* id = rl.r.phase_names.find(name);
    return id ? rl.r.phases[*id].stats : PhaseStats{};
}

double phase_seconds(std::string_view name) { return phase_stats(name).seconds; }
uint64_t phase_calls(std::string_view name) { return phase_stats(name).calls; }

std::vector<std::pair<std::string, uint64_t>> counters_snapshot() {
    ReadLock rl;
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const auto& [name, id] : rl.r.counter_names.ids)
        if (rl.r.counters[id].live) out.emplace_back(name, rl.r.counters[id].value);
    return out;
}

std::vector<std::pair<std::string, ValueStats>> values_snapshot() {
    ReadLock rl;
    std::vector<std::pair<std::string, ValueStats>> out;
    for (const auto& [name, id] : rl.r.value_names.ids)
        if (rl.r.values[id].count > 0) out.emplace_back(name, rl.r.values[id].stats());
    return out;
}

std::vector<std::pair<std::string, PhaseStats>> phases_snapshot() {
    ReadLock rl;
    std::vector<std::pair<std::string, PhaseStats>> out;
    for (const auto& [name, id] : rl.r.phase_names.ids)
        if (rl.r.phases[id].live) out.emplace_back(name, rl.r.phases[id].stats);
    return out;
}

std::optional<TimeSeries> ts_get(std::string_view channel) {
    ReadLock rl;
    const uint32_t* id = rl.r.channel_names.find(channel);
    if (!id || rl.r.channels[*id].offered == 0) return std::nullopt;
    return rl.r.channels[*id].snapshot(*rl.r.channel_names.by_id[*id],
                                       rl.r.channel_units[*id]);
}

std::vector<TimeSeries> ts_snapshot() {
    ReadLock rl;
    std::vector<TimeSeries> out;
    for (const auto& [name, id] : rl.r.channel_names.ids)
        if (rl.r.channels[id].offered > 0)
            out.push_back(rl.r.channels[id].snapshot(name, rl.r.channel_units[id]));
    return out;
}

PhaseNode phase_tree() {
    PhaseNode root;
    for (const auto& [path, stats] : phases_snapshot()) {
        PhaseNode* node = &root;
        size_t begin = 0;
        while (begin <= path.size()) {
            const size_t slash = path.find('/', begin);
            const std::string seg =
                path.substr(begin, slash == std::string::npos ? std::string::npos
                                                              : slash - begin);
            auto it = std::find_if(node->children.begin(), node->children.end(),
                                   [&](const PhaseNode& c) { return c.name == seg; });
            if (it == node->children.end()) {
                PhaseNode child;
                child.name = seg;
                child.path = node->path.empty() ? seg : node->path + "/" + seg;
                node->children.push_back(std::move(child));
                it = std::prev(node->children.end());
            }
            node = &*it;
            if (slash == std::string::npos) break;
            begin = slash + 1;
        }
        node->calls = stats.calls;
        node->seconds = stats.seconds;
        node->rss_samples = stats.rss_samples;
        node->rss_delta_bytes = stats.rss_delta_bytes;
        node->rss_peak_bytes = stats.rss_peak_bytes;
    }
    return root;
}

void reset() {
    {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        tl_log.n = 0;
        std::fill(r.counters.begin(), r.counters.end(), CounterSlot{});
        std::fill(r.values.begin(), r.values.end(), Histogram{});
        std::fill(r.phases.begin(), r.phases.end(), PhaseSlot{});
        std::fill(r.channels.begin(), r.channels.end(), ChannelBuf{});
    }
    budget_reset(); // the accuracy-budget ledger is part of the registry too
}

} // namespace snim::obs
