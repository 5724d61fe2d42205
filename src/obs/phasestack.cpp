#include "obs/phasestack.hpp"

#include <unistd.h>

#include <cstring>

namespace snim::obs::phase_stack {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/// One thread's live stack.  `depth` is the seqlock-ish coordination point:
/// writers bump it only after the frame bytes are in place (push) or before
/// they go stale (pop), so a racing reader sees at worst one garbled frame
/// name — never an out-of-bounds index.
struct ThreadSlot {
    std::atomic<int> depth{0};
    std::atomic<bool> claimed{false};
    char frames[kMaxDepth][kFrameBytes] = {};
};

struct Slots {
    ThreadSlot slot[kMaxThreads];
};

Slots& slots() {
    static Slots* s = new Slots; // leaked: readable during process teardown
    return *s;
}

int claim_slot() {
    Slots& s = slots();
    for (int i = 0; i < kMaxThreads; ++i) {
        bool expected = false;
        if (s.slot[i].claimed.compare_exchange_strong(expected, true,
                                                      std::memory_order_acq_rel))
            return i;
    }
    return -1; // more than kMaxThreads concurrent pushers: untracked
}

/// Releases the slot when its thread exits, so short-lived pool workers
/// recycle slots instead of exhausting the fixed table.
struct SlotLease {
    int index = -2; // -2 unclaimed, -1 claim failed, >= 0 live
    ~SlotLease() {
        if (index >= 0) {
            ThreadSlot& ts = slots().slot[index];
            ts.depth.store(0, std::memory_order_release);
            ts.claimed.store(false, std::memory_order_release);
        }
    }
};

thread_local SlotLease t_lease;

} // namespace

void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool push(std::string_view frame) {
    if (!enabled()) return false;
    if (t_lease.index == -2) t_lease.index = claim_slot();
    if (t_lease.index < 0) return false;
    ThreadSlot& ts = slots().slot[t_lease.index];
    const int d = ts.depth.load(std::memory_order_relaxed);
    if (d >= kMaxDepth) return false;
    char* dst = ts.frames[d];
    const size_t n = frame.size() < kFrameBytes - 1 ? frame.size() : kFrameBytes - 1;
    std::memcpy(dst, frame.data(), n);
    dst[n] = '\0';
    ts.depth.store(d + 1, std::memory_order_release);
    return true;
}

void pop() {
    if (t_lease.index < 0) return;
    ThreadSlot& ts = slots().slot[t_lease.index];
    const int d = ts.depth.load(std::memory_order_relaxed);
    if (d > 0) ts.depth.store(d - 1, std::memory_order_release);
}

int depth() {
    if (t_lease.index < 0) return 0;
    return slots().slot[t_lease.index].depth.load(std::memory_order_relaxed);
}

std::vector<ThreadStack> sample_all() {
    std::vector<ThreadStack> out;
    Slots& s = slots();
    for (int i = 0; i < kMaxThreads; ++i) {
        ThreadSlot& ts = s.slot[i];
        const int d = ts.depth.load(std::memory_order_acquire);
        if (d <= 0) continue;
        ThreadStack stack;
        stack.slot = i;
        stack.frames.reserve(static_cast<size_t>(d));
        for (int f = 0; f < d && f < kMaxDepth; ++f) {
            char buf[kFrameBytes];
            std::memcpy(buf, ts.frames[f], kFrameBytes);
            buf[kFrameBytes - 1] = '\0';
            stack.frames.emplace_back(buf);
        }
        if (!stack.frames.empty()) out.push_back(std::move(stack));
    }
    return out;
}

size_t write_stacks_fd(int fd) {
    Slots& s = slots();
    size_t written = 0;
    for (int i = 0; i < kMaxThreads; ++i) {
        ThreadSlot& ts = s.slot[i];
        const int d = ts.depth.load(std::memory_order_acquire);
        if (d <= 0) continue;
        // {"phase_stack":{"slot":NN,"stack":"a;b;c"}}\n  — rendered into a
        // fixed buffer with byte copies only; frame names are plain phase
        // paths, so no JSON escaping is needed beyond dropping '"' and '\'.
        char line[64 + kMaxDepth * kFrameBytes];
        size_t pos = 0;
        const char* head = "{\"phase_stack\":{\"slot\":";
        for (const char* p = head; *p; ++p) line[pos++] = *p;
        if (i >= 10) line[pos++] = static_cast<char>('0' + i / 10);
        line[pos++] = static_cast<char>('0' + i % 10);
        const char* mid = ",\"stack\":\"";
        for (const char* p = mid; *p; ++p) line[pos++] = *p;
        for (int f = 0; f < d && f < kMaxDepth; ++f) {
            if (f > 0) line[pos++] = ';';
            const char* frame = ts.frames[f];
            for (int b = 0; b < kFrameBytes - 1 && frame[b]; ++b) {
                const char c = frame[b];
                if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                    continue;
                line[pos++] = c;
            }
        }
        const char* tail = "\"}}\n";
        for (const char* p = tail; *p; ++p) line[pos++] = *p;
        (void)!write(fd, line, pos);
        ++written;
    }
    return written;
}

} // namespace snim::obs::phase_stack
