#include "util/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "util/error.hpp"
#include "util/log.hpp"

namespace snim::fault {

namespace {

struct Window {
    long at = 1;
    long count = 1;
};

struct PointState {
    std::vector<Window> windows;
    long queries = 0;
    long trips = 0;
};

struct Store {
    std::mutex mutex;
    std::map<std::string, PointState, std::less<>> points;
    // Fast path: relaxed load, no lock, while nothing is armed.
    std::atomic<int> armed_windows{0};
};

Store& store() {
    static Store* s = new Store;
    return *s;
}

long parse_long(std::string_view text, std::string_view what,
                std::string_view full) {
    if (text.empty())
        raise("fault spec '%.*s': empty %.*s", static_cast<int>(full.size()),
              full.data(), static_cast<int>(what.size()), what.data());
    char* end = nullptr;
    const std::string buf(text);
    const long v = std::strtol(buf.c_str(), &end, 10);
    if (end != buf.c_str() + buf.size())
        raise("fault spec '%.*s': bad %.*s '%s'", static_cast<int>(full.size()),
              full.data(), static_cast<int>(what.size()), what.data(), buf.c_str());
    return v;
}

/// Reads SNIM_FAULT once, before the first armed-count check.  Malformed
/// entries must not abort the process from a static initialiser, so they
/// degrade to a warning.
bool load_env() {
    const char* env = std::getenv("SNIM_FAULT");
    if (!env || !*env) return true;
    try {
        arm_list(env);
    } catch (const Error& e) {
        log_warn("ignoring malformed SNIM_FAULT entry: %s", e.what());
    }
    return true;
}

void ensure_env_loaded() {
    static const bool loaded = load_env();
    (void)loaded;
}

} // namespace

FaultSpec parse_spec(std::string_view text) {
    FaultSpec spec;
    std::string_view rest = text;
    const size_t at_pos = rest.find('@');
    spec.point = std::string(rest.substr(0, at_pos));
    if (spec.point.empty())
        raise("fault spec '%.*s': empty fault point", static_cast<int>(text.size()),
              text.data());
    if (at_pos == std::string_view::npos) return spec;
    rest = rest.substr(at_pos + 1);
    const size_t x_pos = rest.find('x');
    spec.at = parse_long(rest.substr(0, x_pos), "@at", text);
    if (spec.at < 1)
        raise("fault spec '%.*s': @at must be >= 1 (got %ld)",
              static_cast<int>(text.size()), text.data(), spec.at);
    if (x_pos != std::string_view::npos) {
        spec.count = parse_long(rest.substr(x_pos + 1), "xcount", text);
        if (spec.count == 0 || spec.count < -1)
            raise("fault spec '%.*s': xcount must be > 0 or -1 (got %ld)",
                  static_cast<int>(text.size()), text.data(), spec.count);
    }
    return spec;
}

void arm(const FaultSpec& spec) {
    if (spec.point.empty()) raise("fault::arm: empty fault point");
    if (spec.at < 1) raise("fault::arm('%s'): at must be >= 1", spec.point.c_str());
    if (spec.count == 0 || spec.count < -1)
        raise("fault::arm('%s'): count must be > 0 or -1", spec.point.c_str());
    // No ensure_env_loaded() here: load_env() itself arms via arm_list(),
    // and re-entering the guarded static from its own initialiser deadlocks.
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.points[spec.point].windows.push_back({spec.at, spec.count});
    s.armed_windows.fetch_add(1, std::memory_order_relaxed);
}

void arm_list(std::string_view specs) {
    size_t begin = 0;
    while (begin <= specs.size()) {
        size_t end = specs.find(',', begin);
        if (end == std::string_view::npos) end = specs.size();
        const std::string_view part = specs.substr(begin, end - begin);
        if (!part.empty()) arm(parse_spec(part));
        begin = end + 1;
    }
}

void clear() {
    // Force the one-time SNIM_FAULT load first, so env-armed windows cannot
    // resurrect at the first fires() after a clear().
    ensure_env_loaded();
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.points.clear();
    s.armed_windows.store(0, std::memory_order_relaxed);
}

bool fires(std::string_view point) {
    ensure_env_loaded();
    Store& s = store();
    if (s.armed_windows.load(std::memory_order_relaxed) == 0) return false;
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.points.find(point);
    if (it == s.points.end()) return false;
    PointState& ps = it->second;
    const long q = ++ps.queries;
    for (const Window& w : ps.windows) {
        if (q < w.at) continue;
        if (w.count < 0 || q < w.at + w.count) {
            ++ps.trips;
            return true;
        }
    }
    return false;
}

long queries(std::string_view point) {
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.points.find(point);
    return it == s.points.end() ? 0 : it->second.queries;
}

long trips(std::string_view point) {
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.points.find(point);
    return it == s.points.end() ? 0 : it->second.trips;
}

std::vector<FaultSpec> armed() {
    ensure_env_loaded();
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<FaultSpec> out;
    for (const auto& [point, ps] : s.points)
        for (const Window& w : ps.windows) out.push_back({point, w.at, w.count});
    return out;
}

namespace {

double initial_slow_step_seconds() {
    if (const char* env = std::getenv("SNIM_FAULT_SLOW_MS"); env && *env) {
        char* end = nullptr;
        const double ms = std::strtod(env, &end);
        if (end != env && ms >= 0.0) return ms / 1000.0;
        log_warn("ignoring malformed SNIM_FAULT_SLOW_MS '%s'", env);
    }
    return 0.25;
}

std::atomic<double>& slow_step_store() {
    static std::atomic<double>* s = new std::atomic<double>(initial_slow_step_seconds());
    return *s;
}

} // namespace

double slow_step_seconds() {
    return slow_step_store().load(std::memory_order_relaxed);
}

void set_slow_step_seconds(double seconds) {
    slow_step_store().store(seconds < 0.0 ? 0.0 : seconds, std::memory_order_relaxed);
}

} // namespace snim::fault
