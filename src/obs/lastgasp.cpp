#include "obs/lastgasp.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <exception>
#include <mutex>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/phasestack.hpp"
#include "obs/provenance.hpp"
#include "util/error.hpp"

namespace snim::obs {

namespace {

// Handler-visible state.  The fd and header are written at install time
// (normal code) and only read inside the handler; both are plain enough
// that a relaxed atomic fd plus a fixed char buffer suffice.
std::atomic<int> g_fd{-1};
std::atomic<bool> g_fired{false};
char g_header[256];        // {"last_gasp":{"reason":"  ...prerendered prefix
size_t g_header_len = 0;   // length of the prefix up to the reason value
char g_trailer[256];       // ","run_id":"..."}}\n  ...prerendered suffix
size_t g_trailer_len = 0;

std::mutex g_install_mutex; // serialises install/uninstall (not the handler)
std::string g_path;
std::terminate_handler g_prev_terminate = nullptr;
bool g_installed = false;

constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGFPE, SIGBUS, SIGILL};
struct sigaction g_prev_actions[sizeof(kSignals) / sizeof(kSignals[0])];

void as_safe_append(char* buf, size_t cap, size_t& len, const char* text) {
    for (const char* p = text; *p && len + 1 < cap; ++p) buf[len++] = *p;
}

/// The handler body: header + reason + trailer, live phase stacks, event
/// ring tail — write(2) only.
bool write_gasp(const char* reason) {
    const int fd = g_fd.load(std::memory_order_relaxed);
    if (fd < 0) return false;
    char line[512];
    size_t len = 0;
    for (size_t i = 0; i < g_header_len && len + 1 < sizeof(line); ++i)
        line[len++] = g_header[i];
    // Reason is always one of our literals (signal names, "terminate"):
    // no JSON escaping needed.
    as_safe_append(line, sizeof(line), len, reason);
    for (size_t i = 0; i < g_trailer_len && len + 1 < sizeof(line); ++i)
        line[len++] = g_trailer[i];
    (void)!write(fd, line, len);
    phase_stack::write_stacks_fd(fd);
    detail::write_ring_tail_fd(fd, 128);
    (void)fsync(fd);
    return true;
}

void signal_handler(int sig) {
    // First fatal signal wins; a second (possibly from another thread, or
    // from our own re-raise) goes straight to the chained disposition.
    bool expected = false;
    if (g_fired.compare_exchange_strong(expected, true)) {
        const char* name = "signal";
        switch (sig) {
            case SIGSEGV: name = "SIGSEGV"; break;
            case SIGABRT: name = "SIGABRT"; break;
            case SIGFPE: name = "SIGFPE"; break;
            case SIGBUS: name = "SIGBUS"; break;
            case SIGILL: name = "SIGILL"; break;
        }
        write_gasp(name);
    }
    // Restore the default disposition and re-raise so the process still
    // dies with the right wait status (and core dump, where enabled).
    signal(sig, SIG_DFL);
    ::raise(sig);
}

[[noreturn]] void terminate_handler() {
    bool expected = false;
    if (g_fired.compare_exchange_strong(expected, true))
        write_gasp("terminate");
    if (g_prev_terminate) g_prev_terminate();
    std::abort();
}

} // namespace

void install_last_gasp(const std::string& path) {
    std::lock_guard<std::mutex> lock(g_install_mutex);

    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0)
        raise("cannot open last-gasp bundle '%s' for writing", path.c_str());

    // Pre-render the header around the reason slot.
    g_header_len = 0;
    as_safe_append(g_header, sizeof(g_header), g_header_len,
                   "{\"last_gasp\":{\"reason\":\"");
    g_trailer_len = 0;
    const std::string tail =
        "\",\"run_id\":" + json_quote(current_run_id()) + "}}\n";
    as_safe_append(g_trailer, sizeof(g_trailer), g_trailer_len, tail.c_str());

    const int old_fd = g_fd.exchange(fd, std::memory_order_relaxed);
    if (old_fd >= 0) ::close(old_fd);
    g_fired.store(false, std::memory_order_relaxed);
    g_path = path;

    set_events_active(true);
    phase_stack::set_enabled(true);

    if (!g_installed) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = signal_handler;
        sigemptyset(&sa.sa_mask);
        for (size_t i = 0; i < sizeof(kSignals) / sizeof(kSignals[0]); ++i)
            sigaction(kSignals[i], &sa, &g_prev_actions[i]);
        g_prev_terminate = std::set_terminate(terminate_handler);
        g_installed = true;
    }
    event(EventLevel::Info, "lastgasp", "installed", {{"path", path}});
}

void uninstall_last_gasp() {
    std::lock_guard<std::mutex> lock(g_install_mutex);
    if (g_installed) {
        for (size_t i = 0; i < sizeof(kSignals) / sizeof(kSignals[0]); ++i)
            sigaction(kSignals[i], &g_prev_actions[i], nullptr);
        std::set_terminate(g_prev_terminate);
        g_prev_terminate = nullptr;
        g_installed = false;
    }
    const int fd = g_fd.exchange(-1, std::memory_order_relaxed);
    if (fd >= 0) ::close(fd);
    g_path.clear();
}

bool last_gasp_installed() {
    std::lock_guard<std::mutex> lock(g_install_mutex);
    return g_installed;
}

std::string last_gasp_path() {
    std::lock_guard<std::mutex> lock(g_install_mutex);
    return g_path;
}

namespace detail {

bool write_last_gasp_now(const char* reason) { return write_gasp(reason); }

} // namespace detail

} // namespace snim::obs
