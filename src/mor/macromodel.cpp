#include "mor/macromodel.hpp"

#include "circuit/passives.hpp"
#include "util/strings.hpp"

namespace snim::mor {

void instantiate(const RcNetwork& net, circuit::Netlist& target,
                 const std::vector<std::string>& port_nodes, const std::string& prefix) {
    constexpr double g_floor = 1e-9;  // [S]
    constexpr double c_floor = 1e-18; // [F]
    using circuit::Capacitor;
    using circuit::NodeId;
    using circuit::Resistor;

    // Map local node ids to target nodes: the first port_nodes.size() nodes
    // are ports, the rest get fresh prefixed names.
    std::vector<NodeId> map(net.node_count, circuit::kGround);
    SNIM_ASSERT(port_nodes.size() <= net.node_count,
                "more port names (%zu) than nodes (%zu)", port_nodes.size(),
                net.node_count);
    for (size_t i = 0; i < net.node_count; ++i) {
        map[i] = (i < port_nodes.size()) ? target.node(port_nodes[i])
                                         : target.fresh_node(prefix);
    }

    int idx = 0;
    for (const auto& e : net.conductances) {
        if (e.value < g_floor) continue;
        const NodeId a = map[static_cast<size_t>(e.a)];
        const NodeId b = e.b < 0 ? circuit::kGround : map[static_cast<size_t>(e.b)];
        if (a == b) continue;
        target.add<Resistor>(format("%sr%d", prefix.c_str(), idx++), a, b, 1.0 / e.value);
    }
    idx = 0;
    for (const auto& e : net.capacitances) {
        if (e.value < c_floor) continue;
        const NodeId a = map[static_cast<size_t>(e.a)];
        const NodeId b = e.b < 0 ? circuit::kGround : map[static_cast<size_t>(e.b)];
        if (a == b) continue;
        target.add<Capacitor>(format("%sc%d", prefix.c_str(), idx++), a, b, e.value);
    }
}

double total_capacitance(const RcNetwork& net) {
    double c = 0.0;
    for (const auto& e : net.capacitances) c += e.value;
    return c;
}

} // namespace snim::mor
