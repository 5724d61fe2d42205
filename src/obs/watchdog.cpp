#include "obs/watchdog.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "obs/certify.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/phasestack.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/resources.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace snim::obs {

namespace {

/// Document layout version of snim_watchdog_*.json bundles.
constexpr int kWatchdogBundleVersion = 1;

struct Monitor {
    std::mutex mutex;
    std::condition_variable cv;
    std::thread thread;
    WatchdogOptions options;
    bool running = false;
    bool stop_requested = false;
};

Monitor& monitor() {
    static Monitor* m = new Monitor;
    return *m;
}

std::atomic<uint64_t> g_stall_count{0};

Json stacks_json() {
    JsonArray arr;
    for (const phase_stack::ThreadStack& ts : phase_stack::sample_all()) {
        JsonObject o;
        o["slot"] = ts.slot;
        JsonArray frames;
        for (const std::string& f : ts.frames) frames.emplace_back(f);
        o["frames"] = std::move(frames);
        arr.emplace_back(std::move(o));
    }
    return Json(std::move(arr));
}

Json progress_json(const HeartbeatInfo& p) {
    JsonObject o;
    o["phase"] = p.phase;
    o["done"] = p.done;
    o["total"] = p.total;
    o["percent"] = p.percent;
    o["elapsed_s"] = p.elapsed_s;
    o["depth"] = p.depth;
    return Json(std::move(o));
}

/// The hang bundle: everything a post-mortem needs when the process is
/// about to be killed (by us or by an impatient operator).
std::string write_hang_bundle(const WatchdogOptions& opt, double age_s,
                              const HeartbeatInfo& progress) {
    JsonObject doc;
    doc["schema_version"] = kWatchdogBundleVersion;
    doc["kind"] = "watchdog_hang";
    doc["quiet_s"] = age_s;
    doc["stall_budget_s"] = opt.stall_s;
    doc["hang_budget_s"] = opt.hang_s;
    doc["pool_threads"] = util::default_thread_count();
    doc["progress"] = progress_json(progress);
    doc["phase_stacks"] = stacks_json();
    const ResourceSample rss = sample_resources();
    doc["rss_bytes"] = rss.rss_bytes;
    doc["peak_rss_bytes"] = rss.peak_rss_bytes;
    return write_bundle("watchdog", std::move(doc));
}

void monitor_loop() {
    Monitor& m = monitor();
    bool stalled = false;
    bool bundled = false;
    for (;;) {
        WatchdogOptions opt;
        {
            std::unique_lock<std::mutex> lock(m.mutex);
            opt = m.options;
            // Tick fast enough that sub-second test budgets work, slow
            // enough to be invisible on a real run.
            const double tick_s = std::min(0.1, opt.stall_s / 4.0);
            m.cv.wait_for(lock,
                          std::chrono::duration<double>(std::max(0.01, tick_s)),
                          [&] { return m.stop_requested; });
            if (m.stop_requested) return;
            opt = m.options;
        }

        const double age = last_activity_age_s();
        if (age >= 1.0e17) continue; // no run started yet: nothing to watch

        if (age < opt.stall_s) {
            if (stalled) {
                event(EventLevel::Info, "watchdog", "recovered",
                      {{"quiet_s", age}});
                stalled = false;
                bundled = false;
            }
            continue;
        }

        const HeartbeatInfo progress = current_progress();
        if (!stalled) {
            stalled = true;
            g_stall_count.fetch_add(1, std::memory_order_relaxed);
            std::string stacks;
            for (const phase_stack::ThreadStack& ts : phase_stack::sample_all()) {
                if (!stacks.empty()) stacks += " | ";
                for (size_t k = 0; k < ts.frames.size(); ++k)
                    stacks += (k ? ";" : "") + ts.frames[k];
            }
            event(EventLevel::Warn, "watchdog", "stall",
                  {{"quiet_s", age},
                   {"budget_s", opt.stall_s},
                   {"phase", progress.phase},
                   {"done", progress.done},
                   {"total", progress.total},
                   {"pool_threads", util::default_thread_count()},
                   // A stall with breached solve certificates usually means
                   // the solver is grinding on an ill-conditioned system.
                   {"cert_breaches", certificate_breach_count()},
                   {"stacks", stacks}});
            log_warn("watchdog: no forward progress for %.1f s (budget %.1f s), "
                     "innermost phase '%s'",
                     age, opt.stall_s, progress.phase.c_str());
        }

        if (!bundled && age >= opt.hang_s) {
            bundled = true;
            const std::string path = write_hang_bundle(opt, age, progress);
            event(EventLevel::Error, "watchdog", "hang",
                  {{"quiet_s", age},
                   {"budget_s", opt.hang_s},
                   {"bundle", path}});
            log_warn("watchdog: hang after %.1f s quiet; bundle %s", age,
                     path.empty() ? "(unavailable)" : path.c_str());
            if (opt.abort_on_hang) {
                shutdown_live(); // flush the event stream before dying
                std::abort();
            }
        }
    }
}

} // namespace

WatchdogOptions parse_watchdog_spec(std::string_view spec) {
    const auto fail = [&](const std::string& why) {
        raise("watchdog spec '%.*s': %s (want stall_s[,hang_s[,abort]], finite "
              "seconds > 0)",
              static_cast<int>(spec.size()), spec.data(), why.c_str());
    };
    // The whole field is one finite number > 0: no sign, blank or suffix.
    const auto seconds = [&](const std::string& field, const char* name) {
        double v = 0.0;
        const char* last = field.data() + field.size();
        const auto [end, ec] = std::from_chars(field.data(), last, v);
        if (ec != std::errc() || end != last || !std::isfinite(v) || v <= 0.0)
            fail(format("bad %s '%s'", name, field.c_str()));
        return v;
    };
    const std::vector<std::string> fields = split_keep(spec, ',');
    if (fields.size() > 3) fail("more than three fields");
    WatchdogOptions opt;
    opt.stall_s = seconds(fields[0], "stall_s");
    if (fields.size() > 1) opt.hang_s = seconds(fields[1], "hang_s");
    if (fields.size() > 2) {
        if (fields[2] != "abort") fail(format("third field '%s' is not 'abort'",
                                              fields[2].c_str()));
        opt.abort_on_hang = true;
    }
    return opt;
}

void start_watchdog(const WatchdogOptions& options) {
    // Negated so that NaN fails too: a NaN budget compares false against
    // every quiet time and would arm a watchdog that never fires.
    if (!(std::isfinite(options.stall_s) && options.stall_s > 0.0))
        raise("watchdog: stall_s must be finite and > 0 (got %g)", options.stall_s);
    if (!std::isfinite(options.hang_s))
        raise("watchdog: hang_s must be finite (got %g)", options.hang_s);
    WatchdogOptions opt = options;
    if (opt.hang_s <= 0.0) opt.hang_s = 4.0 * opt.stall_s;
    if (opt.hang_s < opt.stall_s) opt.hang_s = opt.stall_s;

    set_events_active(true);
    phase_stack::set_enabled(true);

    Monitor& m = monitor();
    std::lock_guard<std::mutex> lock(m.mutex);
    m.options = opt;
    if (!m.running) {
        m.stop_requested = false;
        m.thread = std::thread(monitor_loop);
        m.running = true;
    }
    event(EventLevel::Info, "watchdog", "started",
          {{"stall_s", opt.stall_s},
           {"hang_s", opt.hang_s},
           {"abort_on_hang", opt.abort_on_hang}});
}

void stop_watchdog() {
    Monitor& m = monitor();
    std::thread joinable;
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        if (!m.running) return;
        m.stop_requested = true;
        m.running = false;
        joinable = std::move(m.thread);
    }
    m.cv.notify_all();
    joinable.join();
}

uint64_t watchdog_stall_count() {
    return g_stall_count.load(std::memory_order_relaxed);
}

} // namespace snim::obs
