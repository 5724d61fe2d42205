#include "obs/resources.hpp"

#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <sys/resource.h>
#endif

namespace snim::obs {

namespace {

/// Parses the "VmRSS:   123 kB" style lines of /proc/self/status.  Returns
/// false when the file is unavailable (non-Linux), letting the caller fall
/// back to getrusage.
bool read_proc_status(uint64_t& rss, uint64_t& peak) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return false;
    char line[256];
    bool got_rss = false, got_peak = false;
    while ((!got_rss || !got_peak) && std::fgets(line, sizeof line, f)) {
        unsigned long long kb = 0;
        if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
            rss = kb * 1024ULL;
            got_rss = true;
        } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
            peak = kb * 1024ULL;
            got_peak = true;
        }
    }
    std::fclose(f);
    return got_rss || got_peak;
}

} // namespace

ResourceSample sample_resources() {
    ResourceSample s;
    if (read_proc_status(s.rss_bytes, s.peak_rss_bytes)) return s;
#ifndef _WIN32
    struct rusage ru;
    if (::getrusage(RUSAGE_SELF, &ru) == 0) {
        // ru_maxrss is kilobytes on Linux and BSDs; only the peak is
        // available on this path.
        s.peak_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss) * 1024ULL;
    }
#endif
    return s;
}

uint64_t current_rss_bytes() { return sample_resources().rss_bytes; }

uint64_t peak_rss_bytes() { return sample_resources().peak_rss_bytes; }

} // namespace snim::obs
