#include <gtest/gtest.h>

#include <cmath>

#include "circuit/passives.hpp"
#include "dense_schur.hpp"
#include "mor/elimination.hpp"
#include "mor/macromodel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snim::mor {
namespace {

TEST(RcNetworkTest, RejectsBadElements) {
    RcNetwork net;
    net.node_count = 3;
    EXPECT_THROW(net.add_g(0, 0, 1.0), Error);  // self loop
    EXPECT_THROW(net.add_g(0, 1, -1.0), Error); // negative
    EXPECT_THROW(net.add_g(5, 1, 1.0), Error);  // out of range
    net.add_g(0, 1, 0.0);                       // zero silently dropped
    EXPECT_TRUE(net.conductances.empty());
}

// Node elimination by the Schur complement (reduce_by_solve) against
// closed forms and the dense oracle.

TEST(EliminationTest, SeriesChainCollapses) {
    // 0 -1ohm- 1 -1ohm- 2, ports {0, 2}: reduced must be a single 2-ohm link.
    RcNetwork net;
    net.node_count = 3;
    net.add_g(0, 1, 1.0);
    net.add_g(1, 2, 1.0);
    auto red = reduce_by_solve(net, {0, 2});
    ASSERT_EQ(red.node_count, 2u);
    ASSERT_EQ(red.conductances.size(), 1u);
    EXPECT_NEAR(red.conductances[0].value, 0.5, 1e-12);
}

TEST(EliminationTest, StarBecomesDelta) {
    // Star centre 3 with arms to 0,1,2 (all 1 S): classic Y->Delta, each
    // pair gets 1/3 S.
    RcNetwork net;
    net.node_count = 4;
    net.add_g(0, 3, 1.0);
    net.add_g(1, 3, 1.0);
    net.add_g(2, 3, 1.0);
    auto red = reduce_by_solve(net, {0, 1, 2});
    EXPECT_EQ(red.conductances.size(), 3u);
    for (const auto& e : red.conductances) EXPECT_NEAR(e.value, 1.0 / 3.0, 1e-12);
}

TEST(EliminationTest, GroundConductancePreserved) {
    // 0 -2S- 1 -4S- gnd, port {0}: driving-point G = (1/2 + 1/4)^-1 S ... =
    // series 2S and 4S = 4/3 S.
    RcNetwork net;
    net.node_count = 2;
    net.add_g(0, 1, 2.0);
    net.add_g(1, -1, 4.0);
    auto red = reduce_by_solve(net, {0});
    ASSERT_EQ(red.conductances.size(), 1u);
    EXPECT_EQ(red.conductances[0].b, -1);
    EXPECT_NEAR(red.conductances[0].value, 4.0 / 3.0, 1e-12);
}

TEST(EliminationTest, PortMatrixExactOnRandomMesh) {
    // Random connected network: reduced port conductance matrix must equal
    // the dense Schur complement of the original.
    Rng rng(5);
    const size_t n = 40;
    RcNetwork net;
    net.node_count = n;
    // Ring for connectivity + random chords + a few ground legs.
    for (size_t i = 0; i < n; ++i)
        net.add_g(static_cast<int>(i), static_cast<int>((i + 1) % n),
                  0.5 + rng.uniform(0, 2));
    for (int k = 0; k < 60; ++k) {
        int a = rng.uniform_int(0, static_cast<int>(n) - 1);
        int b = rng.uniform_int(0, static_cast<int>(n) - 1);
        if (a != b) net.add_g(a, b, rng.uniform(0.1, 1.0));
    }
    net.add_g(3, -1, 0.7);
    net.add_g(17, -1, 1.3);

    const std::vector<int> ports{0, 5, 11, 23, 37};
    const auto gref = dense_port_conductance(net, ports);
    auto red = reduce_by_solve(net, ports);
    // Build the reduced network's own port matrix (ports are all nodes now).
    std::vector<int> all_ports(ports.size());
    for (size_t i = 0; i < ports.size(); ++i) all_ports[i] = static_cast<int>(i);
    const auto gred = dense_port_conductance(red, all_ports);
    for (size_t i = 0; i < ports.size(); ++i)
        for (size_t j = 0; j < ports.size(); ++j)
            EXPECT_NEAR(gred[i][j], gref[i][j], 1e-9 * std::fabs(gref[i][i]) + 1e-12)
                << i << "," << j;
}

TEST(EliminationTest, CapacitanceConserved) {
    // Total capacitance must be preserved by the first-order lumping when
    // every node has a DC path to the ports.
    RcNetwork net;
    net.node_count = 4;
    net.add_g(0, 1, 1.0);
    net.add_g(1, 2, 1.0);
    net.add_g(2, 3, 1.0);
    net.add_c(1, -1, 10e-15);
    net.add_c(2, -1, 20e-15);
    net.add_c(0, -1, 1e-15);
    auto red = reduce_by_solve(net, {0, 3});
    EXPECT_NEAR(total_capacitance(red), 31e-15, 1e-20);
}

TEST(EliminationTest, IsolatedInternalNodeDropped) {
    RcNetwork net;
    net.node_count = 3;
    net.add_g(0, 1, 1.0);
    // Node 2 has no connections at all.
    auto red = reduce_by_solve(net, {0, 1});
    ASSERT_EQ(red.conductances.size(), 1u);
    EXPECT_NEAR(red.conductances[0].value, 1.0, 1e-12);
}

TEST(MacromodelTest, InstantiateIntoNetlist) {
    RcNetwork net;
    net.node_count = 2;
    net.add_g(0, 1, 0.01); // 100 ohm
    net.add_g(1, -1, 0.001);
    net.add_c(0, -1, 1e-12);
    circuit::Netlist nl;
    instantiate(net, nl, {"a", "b"}, "sub:");
    EXPECT_TRUE(nl.has_node("a"));
    EXPECT_TRUE(nl.has_node("b"));
    EXPECT_EQ(nl.device_count(), 3u);
    auto* r = nl.find_as<circuit::Resistor>("sub:r0");
    ASSERT_NE(r, nullptr);
    EXPECT_NEAR(r->resistance(), 100.0, 1e-9);
}

TEST(MacromodelTest, FloorsSkipTinyElements) {
    RcNetwork net;
    net.node_count = 2;
    net.add_g(0, 1, 1e-12); // below default 1 nS floor
    net.add_c(0, -1, 1e-21);
    circuit::Netlist nl;
    instantiate(net, nl, {"a", "b"}, "x:");
    EXPECT_EQ(nl.device_count(), 0u);
}

} // namespace
} // namespace snim::mor
