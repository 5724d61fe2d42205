#include "obs/events.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/json.hpp"
#include "obs/lastgasp.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace snim::obs {

namespace {

static_assert((kEventRingSlots & (kEventRingSlots - 1)) == 0,
              "ring size must be a power of two");

/// Seqlock-per-slot ring.  A slot's seq is 0 while a writer owns it, the
/// record's global 1-based sequence once the text is complete.  Readers
/// re-check seq after copying to discard torn records.
struct Slot {
    std::atomic<uint64_t> seq{0};
    char text[kEventSlotBytes] = {};
};

struct Ring {
    std::atomic<uint64_t> next{0}; // records emitted so far
    Slot slots[kEventRingSlots];
};

Ring& ring() {
    static Ring* r = new Ring;
    return *r;
}

std::atomic<bool> g_active{false};
std::atomic<bool> g_bridge_installed{false};

std::mutex g_stream_mutex;
std::FILE* g_stream = nullptr; // owned unless == stderr
bool g_stream_is_stderr = false;

using Clock = std::chrono::steady_clock;
Clock::time_point journal_epoch() {
    static const Clock::time_point t0 = Clock::now();
    return t0;
}

/// Mirrors every util::log emission into the journal.  Installed once, on
/// first activation; inert while the journal is inactive.
void install_log_bridge() {
    bool expected = false;
    if (!g_bridge_installed.compare_exchange_strong(expected, true)) return;
    set_log_mirror([](LogLevel level, std::string_view msg) {
        if (!events_active()) return;
        EventLevel lvl = EventLevel::Info;
        switch (level) {
            case LogLevel::Debug: lvl = EventLevel::Debug; break;
            case LogLevel::Info: lvl = EventLevel::Info; break;
            case LogLevel::Warn: lvl = EventLevel::Warn; break;
            case LogLevel::Quiet: return;
        }
        event(lvl, "log", event_level_name(lvl), {{"msg", msg}});
    });
}

std::string render_kv(std::initializer_list<EventKv> kv) {
    std::string out;
    for (const EventKv& e : kv) {
        out += out.empty() ? "{" : ",";
        out += json_quote(e.key);
        out += ':';
        switch (e.kind) {
            case EventKv::Kind::Num: out += json_number(e.num); break;
            case EventKv::Kind::Bool: out += e.flag ? "true" : "false"; break;
            case EventKv::Kind::Str: out += json_quote(e.str); break;
        }
    }
    if (out.empty()) return "{}";
    out += '}';
    return out;
}

std::string render_record(uint64_t seq, double ts, EventLevel level,
                          std::string_view component, std::string_view code,
                          std::initializer_list<EventKv> kv, bool truncated) {
    std::string out = "{\"seq\":" + json_number(static_cast<double>(seq)) +
                      ",\"ts\":" + format("%.6f", ts) +
                      ",\"lvl\":\"" + event_level_name(level) + "\"" +
                      ",\"comp\":" + json_quote(component) +
                      ",\"code\":" + json_quote(code);
    if (truncated) {
        out += ",\"truncated\":true}";
        return out;
    }
    out += ",\"kv\":" + render_kv(kv) + "}";
    return out;
}

} // namespace

bool events_active() { return g_active.load(std::memory_order_relaxed); }

void set_events_active(bool on) {
    if (on) {
        (void)journal_epoch(); // start the journal clock
        install_log_bridge();
    }
    g_active.store(on, std::memory_order_relaxed);
}

double event_now_s() {
    return std::chrono::duration<double>(Clock::now() - journal_epoch()).count();
}

void event(EventLevel level, std::string_view component, std::string_view code,
           std::initializer_list<EventKv> kv) {
    if (!events_active()) return;
    if (level == EventLevel::Debug && log_level() > LogLevel::Debug) return;

    Ring& r = ring();
    const uint64_t seq = r.next.fetch_add(1, std::memory_order_relaxed) + 1;
    const double ts = event_now_s();
    std::string line = render_record(seq, ts, level, component, code, kv, false);
    if (line.size() >= kEventSlotBytes)
        line = render_record(seq, ts, level, component, code, {}, true);

    Slot& slot = r.slots[(seq - 1) & (kEventRingSlots - 1)];
    slot.seq.store(0, std::memory_order_release); // mark busy
    std::memcpy(slot.text, line.data(), line.size());
    slot.text[line.size()] = '\0';
    slot.seq.store(seq, std::memory_order_release);

    std::lock_guard<std::mutex> lock(g_stream_mutex);
    if (g_stream) {
        std::fwrite(line.data(), 1, line.size(), g_stream);
        std::fputc('\n', g_stream);
        std::fflush(g_stream);
    }
}

void set_event_stream_path(const std::string& path) {
    close_event_stream();
    if (path.empty()) return;
    std::FILE* f = nullptr;
    bool is_stderr = false;
    if (path == "stderr" || path == "-") {
        f = stderr;
        is_stderr = true;
    } else {
        f = std::fopen(path.c_str(), "w");
        if (!f) raise("cannot open event stream '%s' for writing", path.c_str());
    }
    {
        std::lock_guard<std::mutex> lock(g_stream_mutex);
        g_stream = f;
        g_stream_is_stderr = is_stderr;
    }
    set_events_active(true);
}

void close_event_stream() {
    std::lock_guard<std::mutex> lock(g_stream_mutex);
    if (g_stream && !g_stream_is_stderr) std::fclose(g_stream);
    g_stream = nullptr;
    g_stream_is_stderr = false;
}

std::vector<std::string> event_tail(size_t max_count) {
    Ring& r = ring();
    const uint64_t emitted = r.next.load(std::memory_order_acquire);
    if (emitted == 0 || max_count == 0) return {};
    const uint64_t window = std::min<uint64_t>({emitted, max_count, kEventRingSlots});
    std::vector<std::string> out;
    out.reserve(window);
    for (uint64_t seq = emitted - window + 1; seq <= emitted; ++seq) {
        Slot& slot = r.slots[(seq - 1) & (kEventRingSlots - 1)];
        const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 != seq) continue; // overwritten or mid-write
        char buf[kEventSlotBytes];
        std::memcpy(buf, slot.text, kEventSlotBytes);
        const uint64_t s2 = slot.seq.load(std::memory_order_acquire);
        if (s2 != seq) continue; // torn during the copy
        buf[kEventSlotBytes - 1] = '\0';
        out.emplace_back(buf);
    }
    return out;
}

uint64_t event_count() { return ring().next.load(std::memory_order_relaxed); }

void reset_events_for_test() {
    Ring& r = ring();
    r.next.store(0, std::memory_order_relaxed);
    for (Slot& s : r.slots) {
        s.seq.store(0, std::memory_order_relaxed);
        s.text[0] = '\0';
    }
}

namespace detail {

size_t write_ring_tail_fd(int fd, size_t max_count) {
    Ring& r = ring();
    const uint64_t emitted = r.next.load(std::memory_order_acquire);
    if (emitted == 0 || max_count == 0) return 0;
    const uint64_t window = std::min<uint64_t>({emitted, max_count, kEventRingSlots});
    size_t written = 0;
    for (uint64_t seq = emitted - window + 1; seq <= emitted; ++seq) {
        Slot& slot = r.slots[(seq - 1) & (kEventRingSlots - 1)];
        if (slot.seq.load(std::memory_order_acquire) != seq) continue;
        size_t len = 0;
        while (len < kEventSlotBytes - 1 && slot.text[len] != '\0') ++len;
        if (len == 0) continue;
        (void)!write(fd, slot.text, len);
        (void)!write(fd, "\n", 1);
        ++written;
    }
    return written;
}

} // namespace detail

// --- env-driven live stack ------------------------------------------------

namespace {

std::atomic<bool> g_live_shutdown_registered{false};
std::string g_env_profile_path; // SNIM_PROFILE target, written on shutdown

void register_shutdown() {
    bool expected = false;
    if (g_live_shutdown_registered.compare_exchange_strong(expected, true))
        std::atexit([] { shutdown_live(); });
}

} // namespace

void init_live_from_env() {
    static bool done = false;
    if (done) return;
    done = true;

    if (const char* env = std::getenv("SNIM_EVENTS"); env && *env) {
        set_event_stream_path(env);
        register_shutdown();
    }
    if (const char* env = std::getenv("SNIM_PROFILE"); env && *env) {
        g_env_profile_path = env;
        start_profiler();
        register_shutdown();
    }
    if (const char* env = std::getenv("SNIM_WATCHDOG"); env && *env) {
        try {
            start_watchdog(parse_watchdog_spec(env));
            register_shutdown();
        } catch (const Error& e) {
            log_warn("ignoring malformed SNIM_WATCHDOG: %s", e.what());
        }
    }
    if (const char* env = std::getenv("SNIM_LASTGASP"); env && *env) {
        install_last_gasp(env);
        register_shutdown();
    }
}

void shutdown_live() {
    // The folded file holds the counts as frozen by the first stop, so a
    // caller that stopped the profiler early (snim_bench, before its
    // report) gets the same counts in both.
    stop_profiler();
    if (!g_env_profile_path.empty()) {
        try {
            util::write_file_atomic(g_env_profile_path,
                                    folded_text(profiler_snapshot()));
        } catch (const Error& e) {
            log_warn("cannot write SNIM_PROFILE output: %s", e.what());
        }
        g_env_profile_path.clear();
    }
    stop_watchdog();
    close_event_stream();
}

} // namespace snim::obs
