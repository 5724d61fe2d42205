#include "obs/provenance.hpp"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <mutex>

#ifndef _WIN32
#include <sys/utsname.h>
#include <unistd.h>
#endif

#include "util/error.hpp"

namespace snim::obs {

uint64_t fnv1a64(std::string_view data, uint64_t seed) {
    uint64_t h = seed;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

void ConfigDigest::add(std::string_view field, std::string_view value) {
    fields_.emplace_back(std::string(field), std::string(value));
}

void ConfigDigest::add(std::string_view field, const char* value) {
    add(field, std::string_view(value));
}

void ConfigDigest::add(std::string_view field, double value) {
    add(field, std::string_view(format("%.17g", value)));
}

void ConfigDigest::add(std::string_view field, bool value) {
    add(field, std::string_view(value ? "true" : "false"));
}

void ConfigDigest::add(std::string_view field, int value) {
    add(field, std::string_view(format("%d", value)));
}

void ConfigDigest::add(std::string_view field, long value) {
    add(field, std::string_view(format("%ld", value)));
}

void ConfigDigest::add(std::string_view field, uint64_t value) {
    add(field, std::string_view(format("%llu", static_cast<unsigned long long>(value))));
}

void ConfigDigest::add(std::string_view field, const std::vector<double>& values) {
    std::string v = format("[%zu]", values.size());
    for (const double x : values) {
        v += format("%.17g", x);
        v += ';';
    }
    add(field, std::string_view(v));
}

uint64_t ConfigDigest::value64() const {
    std::vector<std::pair<std::string, std::string>> sorted = fields_;
    std::sort(sorted.begin(), sorted.end());
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [name, value] : sorted) {
        h = fnv1a64(name, h);
        h = fnv1a64("=", h);
        h = fnv1a64(value, h);
        h = fnv1a64("\n", h);
    }
    return h;
}

std::string ConfigDigest::hex() const {
    return format("%016llx", static_cast<unsigned long long>(value64()));
}

namespace {

/// One epoch stamp per process so every run id and token shares it: the
/// combination (start stamp, pid) identifies the process, the trailing
/// sequence number orders runs within it.
uint64_t process_start_stamp() {
    static const uint64_t stamp = static_cast<uint64_t>(std::time(nullptr));
    return stamp;
}

int process_pid() {
#ifndef _WIN32
    return static_cast<int>(::getpid());
#else
    return 0;
#endif
}

std::string detect_sanitizers() {
    std::string out;
#if defined(__SANITIZE_ADDRESS__)
    out = "address";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    out = "address";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
    out += out.empty() ? "thread" : ",thread";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    out += out.empty() ? "thread" : ",thread";
#endif
#endif
    return out;
}

std::string detect_hostname() {
#ifndef _WIN32
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0]) return buf;
#endif
    return "unknown";
}

std::string detect_os() {
#ifndef _WIN32
    struct utsname u;
    if (::uname(&u) == 0) return format("%s %s", u.sysname, u.release);
#endif
    return "unknown";
}

std::string utc_now_iso8601() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#ifndef _WIN32
    gmtime_r(&now, &tm);
#else
    tm = *std::gmtime(&now);
#endif
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::mutex& manifest_mutex() {
    static std::mutex* m = new std::mutex;
    return *m;
}

std::optional<RunManifest>& manifest_store() {
    static std::optional<RunManifest>* m = new std::optional<RunManifest>;
    return *m;
}

} // namespace

RunManifest make_run_manifest(std::string tool, const ConfigDigest& digest,
                              uint64_t seed, int threads) {
    static std::atomic<int> seq{0};
    RunManifest m;
    m.run_id = format("%llx-%d-%03d",
                      static_cast<unsigned long long>(process_start_stamp()),
                      process_pid(), seq.fetch_add(1));
    m.tool = std::move(tool);
    m.config_digest = digest.hex();
    m.seed = seed;
    m.threads = threads;
#ifdef SNIM_BUILD_TYPE
    m.build_type = SNIM_BUILD_TYPE;
#else
    m.build_type = "unknown";
#endif
#ifdef __VERSION__
    m.compiler = __VERSION__;
#else
    m.compiler = "unknown";
#endif
    m.obs_enabled = true;
    m.faults_enabled = true;
    m.sanitizers = detect_sanitizers();
    m.hostname = detect_hostname();
    m.os = detect_os();
    m.created_utc = utc_now_iso8601();
    return m;
}

Json manifest_json(const RunManifest& m) {
    JsonObject o;
    o.emplace("run_id", m.run_id);
    o.emplace("tool", m.tool);
    o.emplace("config_digest", m.config_digest);
    o.emplace("seed", m.seed);
    o.emplace("threads", m.threads);
    o.emplace("build_type", m.build_type);
    o.emplace("compiler", m.compiler);
    o.emplace("obs_enabled", m.obs_enabled);
    o.emplace("faults_enabled", m.faults_enabled);
    o.emplace("sanitizers", m.sanitizers);
    o.emplace("hostname", m.hostname);
    o.emplace("os", m.os);
    o.emplace("created_utc", m.created_utc);
    return Json(std::move(o));
}

RunManifest manifest_from_json(const Json& j) {
    RunManifest m;
    if (!j.is_object()) return m;
    auto str = [&](const char* key, std::string& into) {
        if (j.contains(key) && j.at(key).is_string()) into = j.at(key).as_string();
    };
    str("run_id", m.run_id);
    str("tool", m.tool);
    str("config_digest", m.config_digest);
    if (j.contains("seed") && j.at("seed").is_number())
        m.seed = static_cast<uint64_t>(j.at("seed").as_number());
    if (j.contains("threads") && j.at("threads").is_number())
        m.threads = static_cast<int>(j.at("threads").as_number());
    str("build_type", m.build_type);
    str("compiler", m.compiler);
    if (j.contains("obs_enabled") && j.at("obs_enabled").is_bool())
        m.obs_enabled = j.at("obs_enabled").as_bool();
    if (j.contains("faults_enabled") && j.at("faults_enabled").is_bool())
        m.faults_enabled = j.at("faults_enabled").as_bool();
    str("sanitizers", m.sanitizers);
    str("hostname", m.hostname);
    str("os", m.os);
    str("created_utc", m.created_utc);
    return m;
}

void set_current_manifest(RunManifest m) {
    std::lock_guard<std::mutex> lock(manifest_mutex());
    manifest_store() = std::move(m);
}

std::optional<RunManifest> current_manifest() {
    std::lock_guard<std::mutex> lock(manifest_mutex());
    return manifest_store();
}

void clear_current_manifest() {
    std::lock_guard<std::mutex> lock(manifest_mutex());
    manifest_store().reset();
}

RunManifest ensure_current_manifest(const std::string& tool,
                                    const ConfigDigest& digest, uint64_t seed,
                                    int threads) {
    {
        std::lock_guard<std::mutex> lock(manifest_mutex());
        if (manifest_store()) return *manifest_store();
    }
    // Built outside the lock (make_run_manifest probes the host); a racing
    // second caller just wins the store below, which is fine — both
    // manifests describe the same process.
    RunManifest m = make_run_manifest(tool, digest, seed, threads);
    std::lock_guard<std::mutex> lock(manifest_mutex());
    if (!manifest_store()) manifest_store() = m;
    return *manifest_store();
}

std::string current_run_id() {
    if (auto m = current_manifest(); m && !m->run_id.empty()) return m->run_id;
    return format("%llxp%d", static_cast<unsigned long long>(process_start_stamp()),
                  process_pid());
}

} // namespace snim::obs
