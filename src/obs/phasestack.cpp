#include "obs/phasestack.hpp"

#include <unistd.h>

#include <utility>

namespace snim::obs::phase_stack {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/// One thread's live stack.  `depth` is the coordination point: writers
/// bump it only after the frame pointer is in place (push) or before it
/// goes stale (pop), so a racing reader never indexes past the stack, and
/// every pointer it loads names a whole, process-lifetime phase name.
struct ThreadSlot {
    std::atomic<int> depth{0};
    std::atomic<bool> claimed{false};
    std::atomic<const char*> frames[kMaxDepth] = {};
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

bool push(const Phase& phase) {
    if (!enabled()) return false;
    if (t_lease.index == -2) t_lease.index = claim_slot();
    if (t_lease.index < 0) return false;
    ThreadSlot& ts = slots().slot[t_lease.index];
    const int d = ts.depth.load(std::memory_order_relaxed);
    if (d >= kMaxDepth) return false;
    // Phase::name() views a registry-owned std::string: NUL-terminated.
    ts.frames[d].store(phase.name().data(), std::memory_order_relaxed);
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
        for (int f = 0; f < d && f < kMaxDepth; ++f)
            stack.frames.emplace_back(ts.frames[f].load(std::memory_order_relaxed));
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
        // {"phase_stack":{"slot":NN,"stack":"a;b;c"}}\n  — byte copies into a
        // fixed buffer, flushed by write(2) when full; frame names are plain
        // phase paths, so no JSON escaping is needed beyond dropping '"',
        // '\' and control bytes.
        char line[512];
        size_t pos = 0;
        const auto put = [&](char c) {
            if (pos == sizeof(line)) (void)!write(fd, line, std::exchange(pos, 0));
            line[pos++] = c;
        };
        const auto put_str = [&](const char* text) {
            for (; *text; ++text) put(*text);
        };
        put_str("{\"phase_stack\":{\"slot\":");
        if (i >= 10) put(static_cast<char>('0' + i / 10));
        put(static_cast<char>('0' + i % 10));
        put_str(",\"stack\":\"");
        for (int f = 0; f < d && f < kMaxDepth; ++f) {
            if (f > 0) put(';');
            for (const char* c = ts.frames[f].load(std::memory_order_relaxed); *c; ++c)
                if (*c != '"' && *c != '\\' && static_cast<unsigned char>(*c) >= 0x20)
                    put(*c);
        }
        put_str("\"}}\n");
        (void)!write(fd, line, pos);
        ++written;
    }
    return written;
}

} // namespace snim::obs::phase_stack
