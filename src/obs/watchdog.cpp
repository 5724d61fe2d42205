#include "obs/watchdog.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/certify.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/phasestack.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/resources.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
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

std::mutex g_bundle_mutex;
std::string g_last_bundle;
uint64_t g_bundle_seq = 0;

/// ";"-joined innermost-last rendering of one sampled stack.
std::string join_frames(const std::vector<std::string>& frames) {
    std::string out;
    for (const std::string& f : frames) {
        if (!out.empty()) out += ';';
        out += f;
    }
    return out;
}

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
std::string write_bundle(const WatchdogOptions& opt, double age_s,
                         const HeartbeatInfo& progress) {
    JsonObject doc;
    doc["schema_version"] = kWatchdogBundleVersion;
    doc["kind"] = "watchdog_hang";
    doc["quiet_s"] = age_s;
    doc["stall_budget_s"] = opt.stall_s;
    doc["hang_budget_s"] = opt.hang_s;
    doc["pool_threads"] = util::default_thread_count();
    if (auto m = current_manifest()) doc["manifest"] = manifest_json(*m);
    doc["progress"] = progress_json(progress);
    doc["phase_stacks"] = stacks_json();
    JsonArray events;
    for (const std::string& line : event_tail()) {
        try {
            events.push_back(Json::parse(line));
        } catch (const Error&) {
            // A torn or overwritten record slipped through; drop it.
        }
    }
    doc["events"] = std::move(events);
    doc["registry"] = report_json();
    const ResourceSample rss = sample_resources();
    doc["rss_bytes"] = rss.rss_bytes;
    doc["peak_rss_bytes"] = rss.peak_rss_bytes;

    std::string run;
    if (auto m = current_manifest()) run = m->run_id;
    if (run.empty()) run = process_run_token();
    uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(g_bundle_mutex);
        seq = g_bundle_seq++;
    }
    std::string path = opt.bundle_dir.empty() ? std::string(".") : opt.bundle_dir;
    path += "/snim_watchdog_" + run + "_" + std::to_string(seq) + ".json";
    try {
        write_json_file(path, Json(std::move(doc)));
    } catch (const Error& e) {
        log_warn("watchdog: cannot write hang bundle: %s", e.what());
        return {};
    }
    {
        std::lock_guard<std::mutex> lock(g_bundle_mutex);
        g_last_bundle = path;
    }
    return path;
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
                stacks += join_frames(ts.frames);
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
            const std::string path = write_bundle(opt, age, progress);
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

void start_watchdog(const WatchdogOptions& options) {
    if (options.stall_s <= 0.0)
        raise("watchdog: stall_s must be > 0 (got %g)", options.stall_s);
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

bool watchdog_running() {
    Monitor& m = monitor();
    std::lock_guard<std::mutex> lock(m.mutex);
    return m.running;
}

uint64_t watchdog_stall_count() {
    return g_stall_count.load(std::memory_order_relaxed);
}

std::string last_watchdog_bundle() {
    std::lock_guard<std::mutex> lock(g_bundle_mutex);
    return g_last_bundle;
}

} // namespace snim::obs
