#include "mor/elimination.hpp"

#include <cmath>

#include "util/error.hpp"

namespace snim::mor {

void RcNetwork::add_g(int a, int b, double g) {
    SNIM_ASSERT(std::isfinite(g) && g >= 0,
                "conductance must be finite and >= 0 (got %g)", g);
    SNIM_ASSERT(a >= 0 && static_cast<size_t>(a) < node_count, "bad node %d", a);
    SNIM_ASSERT(b >= -1 && b < static_cast<int>(node_count), "bad node %d", b);
    SNIM_ASSERT(a != b, "self-loop on node %d", a);
    if (g > 0) conductances.push_back({a, b, g});
}

void RcNetwork::add_c(int a, int b, double c) {
    SNIM_ASSERT(std::isfinite(c) && c >= 0,
                "capacitance must be finite and >= 0 (got %g)", c);
    SNIM_ASSERT(a >= 0 && static_cast<size_t>(a) < node_count, "bad node %d", a);
    SNIM_ASSERT(b >= -1 && b < static_cast<int>(node_count), "bad node %d", b);
    SNIM_ASSERT(a != b, "self-loop on node %d", a);
    if (c > 0) capacitances.push_back({a, b, c});
}

RcNetwork ports_first(const RcNetwork& net, const std::vector<int>& ports) {
    const size_t n = net.node_count;
    std::vector<int> new_id(n, -1);
    for (size_t j = 0; j < ports.size(); ++j) {
        const int p = ports[j];
        SNIM_ASSERT(p >= 0 && static_cast<size_t>(p) < n, "bad port %d", p);
        SNIM_ASSERT(new_id[static_cast<size_t>(p)] < 0, "duplicate port %d", p);
        new_id[static_cast<size_t>(p)] = static_cast<int>(j);
    }
    int next = static_cast<int>(ports.size());
    for (size_t i = 0; i < n; ++i)
        if (new_id[i] < 0) new_id[i] = next++;

    RcNetwork out;
    out.node_count = n;
    auto remap = [&](int id) {
        return id < 0 ? -1 : new_id[static_cast<size_t>(id)];
    };
    out.conductances.reserve(net.conductances.size());
    for (const auto& e : net.conductances)
        out.conductances.push_back({remap(e.a), remap(e.b), e.value});
    out.capacitances.reserve(net.capacitances.size());
    for (const auto& e : net.capacitances)
        out.capacitances.push_back({remap(e.a), remap(e.b), e.value});
    return out;
}

} // namespace snim::mor
