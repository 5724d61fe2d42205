#include "obs/profiler.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/phasestack.hpp"

namespace snim::obs {

namespace {

struct Sampler {
    std::mutex mutex;
    std::condition_variable cv;
    std::thread thread;
    bool running = false;
    bool stop_requested = false;
    uint64_t samples = 0;
    std::map<std::string, uint64_t> counts;
};

Sampler& sampler() {
    static Sampler* s = new Sampler;
    return *s;
}

void sampler_loop() {
    Sampler& s = sampler();
    const auto period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / kProfilerHz));
    auto next = std::chrono::steady_clock::now() + period;
    std::string key;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(s.mutex);
            s.cv.wait_until(lock, next, [&] { return s.stop_requested; });
            if (s.stop_requested) return;
        }
        next += period;
        // Fell behind (suspended laptop, loaded box): skip, don't burst.
        const auto now = std::chrono::steady_clock::now();
        if (next < now) next = now + period;

        const auto stacks = phase_stack::sample_all();
        std::lock_guard<std::mutex> lock(s.mutex);
        ++s.samples;
        if (stacks.empty()) {
            ++s.counts["snim"];
            continue;
        }
        for (const phase_stack::ThreadStack& ts : stacks) {
            key = "snim";
            for (const std::string& f : ts.frames) {
                key += ';';
                key += f;
            }
            ++s.counts[key];
        }
    }
}

} // namespace

void start_profiler() {
    phase_stack::set_enabled(true);
    Sampler& s = sampler();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.running) return;
    s.stop_requested = false;
    s.thread = std::thread(sampler_loop);
    s.running = true;
}

void stop_profiler() {
    Sampler& s = sampler();
    std::thread joinable;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.running) return;
        s.stop_requested = true;
        s.running = false;
        joinable = std::move(s.thread);
    }
    s.cv.notify_all();
    joinable.join();
}

bool profiler_running() {
    Sampler& s = sampler();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.running;
}

FoldedProfile profiler_snapshot() {
    Sampler& s = sampler();
    std::lock_guard<std::mutex> lock(s.mutex);
    FoldedProfile p;
    p.samples = s.samples;
    p.counts = s.counts;
    return p;
}

void reset_profiler() {
    Sampler& s = sampler();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.samples = 0;
    s.counts.clear();
}

std::string folded_text(const FoldedProfile& profile) {
    std::string out;
    for (const auto& [stack, count] : profile.counts) {
        out += stack;
        out += ' ';
        out += std::to_string(count);
        out += '\n';
    }
    return out;
}

Json profile_json(const FoldedProfile& profile) {
    JsonObject stacks;
    for (const auto& [stack, count] : profile.counts) stacks[stack] = count;
    JsonObject o;
    o["hz"] = kProfilerHz;
    o["samples"] = profile.samples;
    o["stacks"] = std::move(stacks);
    return Json(std::move(o));
}

} // namespace snim::obs
