#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "circuit/sources.hpp"
#include "dense_schur.hpp"
#include "mor/elimination.hpp"
#include "mor/macromodel.hpp"
#include "numeric/vecops.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "sim/op.hpp"
#include "sim/transfer.hpp"
#include "substrate/extractor.hpp"
#include "substrate/mesh.hpp"
#include "tech/generic180.hpp"
#include "testcases/nmos_structure.hpp"
#include "testcases/vco.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snim::mor {
namespace {

RcNetwork random_grounded_network(size_t n, int chords, uint64_t seed) {
    Rng rng(seed);
    RcNetwork net;
    net.node_count = n;
    for (size_t i = 0; i < n; ++i)
        net.add_g(static_cast<int>(i), static_cast<int>((i + 1) % n),
                  0.3 + rng.uniform(0, 2));
    for (int k = 0; k < chords; ++k) {
        int a = rng.uniform_int(0, static_cast<int>(n) - 1);
        int b = rng.uniform_int(0, static_cast<int>(n) - 1);
        if (a != b) net.add_g(a, b, rng.uniform(0.05, 1.0));
    }
    net.add_g(2, -1, 0.8);
    net.add_g(static_cast<int>(n) - 3, -1, 1.2);
    return net;
}

std::vector<std::vector<double>> port_matrix(const RcNetwork& reduced, size_t np) {
    std::vector<int> ports(np);
    for (size_t i = 0; i < np; ++i) ports[i] = static_cast<int>(i);
    return dense_port_conductance(reduced, ports);
}

TEST(ReduceBySolveTest, MatchesDenseSchurOnRandomNetworks) {
    for (uint64_t seed : {1u, 7u, 19u}) {
        auto net = random_grounded_network(60, 90, seed);
        const std::vector<int> ports{0, 13, 27, 41, 55};
        const auto gref = dense_port_conductance(net, ports);
        const auto g = port_matrix(reduce_by_solve(net, ports), ports.size());
        for (size_t i = 0; i < ports.size(); ++i)
            for (size_t j = 0; j < ports.size(); ++j)
                EXPECT_NEAR(g[i][j], gref[i][j], 1e-7 * std::fabs(gref[i][i]) + 1e-10)
                    << "seed=" << seed << " (" << i << "," << j << ")";
    }
}

TEST(ReduceBySolveTest, SeriesChain) {
    RcNetwork net;
    net.node_count = 4;
    net.add_g(0, 1, 2.0);
    net.add_g(1, 2, 2.0);
    net.add_g(2, 3, 2.0);
    auto red = reduce_by_solve(net, {0, 3});
    ASSERT_EQ(red.node_count, 2u);
    double g = 0.0;
    for (const auto& e : red.conductances)
        if (e.b >= 0) g += e.value;
    EXPECT_NEAR(g, 2.0 / 3.0, 1e-9);
}

TEST(ReduceBySolveTest, PortMatrixIsSymmetricAndDiagonallyDominant) {
    auto net = random_grounded_network(80, 160, 3);
    const std::vector<int> ports{0, 10, 20, 30, 40, 50, 60, 70};
    auto red = reduce_by_solve(net, ports);
    // Realized netlist has only positive conductances by construction.
    for (const auto& e : red.conductances) EXPECT_GT(e.value, 0.0);
    auto g = port_matrix(red, ports.size());
    for (size_t i = 0; i < ports.size(); ++i)
        for (size_t j = i + 1; j < ports.size(); ++j)
            EXPECT_NEAR(g[i][j], g[j][i], 1e-9);
}

TEST(ReduceBySolveTest, CapacitanceConservedForGroundedInternals) {
    RcNetwork net;
    net.node_count = 4;
    net.add_g(0, 1, 1.0);
    net.add_g(1, 2, 1.0);
    net.add_g(2, 3, 1.0);
    net.add_c(1, -1, 10e-15);
    net.add_c(2, -1, 20e-15);
    net.add_c(0, -1, 1e-15);
    auto red = reduce_by_solve(net, {0, 3});
    EXPECT_NEAR(total_capacitance(red), 31e-15, 1e-19);
}

TEST(ReduceBySolveTest, PortAttachedCapKeepsSeriesTopology) {
    // Port 1 couples capacitively to internal node 2, which connects
    // resistively to port 0: the reduced model must contain a port-port
    // capacitance, NOT a cap from port 1 to ground.
    RcNetwork net;
    net.node_count = 3;
    net.add_g(0, 2, 1.0);
    net.add_c(1, 2, 50e-15);
    auto red = reduce_by_solve(net, {0, 1});
    double c01 = 0.0, c1g = 0.0;
    for (const auto& e : red.capacitances) {
        if (e.b == -1 && e.a == 1) c1g += e.value;
        if ((e.a == 0 && e.b == 1) || (e.a == 1 && e.b == 0)) c01 += e.value;
    }
    EXPECT_NEAR(c01, 50e-15, 1e-19);
    EXPECT_NEAR(c1g, 0.0, 1e-19);
}

TEST(ReduceBySolveTest, UngroundedNetworkHasNoGroundLegs) {
    RcNetwork net;
    net.node_count = 3;
    net.add_g(0, 1, 1.0);
    net.add_g(1, 2, 1.0);
    auto red = reduce_by_solve(net, {0, 2});
    for (const auto& e : red.conductances) EXPECT_GE(e.b, 0);
}

TEST(ReduceBySolveTest, LargeMeshIsFast) {
    // 40x40 resistive grid with 6 ports reduces in well under a second.
    const int n = 40;
    RcNetwork net;
    net.node_count = static_cast<size_t>(n * n);
    auto id = [n](int x, int y) { return y * n + x; };
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x) {
            if (x + 1 < n) net.add_g(id(x, y), id(x + 1, y), 1.0);
            if (y + 1 < n) net.add_g(id(x, y), id(x, y + 1), 1.0);
        }
    const std::vector<int> ports{id(0, 0), id(39, 0),  id(0, 39),
                                 id(39, 39), id(20, 20), id(10, 30)};
    auto red = reduce_by_solve(net, ports);
    EXPECT_EQ(red.node_count, 6u);
    // Sanity: adjacent corners see less resistance than opposite corners.
    auto g = dense_port_conductance(red, {0, 1, 2, 3, 4, 5});
    EXPECT_GT(-g[0][1], 0.0);
}

TEST(ReduceBySolveTest, FloatingIslandMatchesNetworkWithoutIt) {
    // Two internal nodes tied only to each other -- no port, no ground --
    // make G_ii singular, and the second island node's incomplete-Cholesky
    // pivot cancels to exactly zero.  The island carries no current, so the
    // port matrix must equal that of the network without it.
    const RcNetwork base = random_grounded_network(40, 60, 5);
    const std::vector<int> ports{0, 11, 23, 35};
    const auto gref = dense_port_conductance(base, ports);
    RcNetwork net = base;
    net.node_count += 2;
    net.add_g(40, 41, 1.0);
    const auto g = port_matrix(reduce_by_solve(net, ports), ports.size());
    for (size_t i = 0; i < ports.size(); ++i)
        for (size_t j = 0; j < ports.size(); ++j)
            EXPECT_NEAR(g[i][j], gref[i][j],
                        1e-9 * std::sqrt(gref[i][i] * gref[j][j]))
                << "(" << i << "," << j << ")";
}

/// Port matrix of a reduced network's capacitances: ground caps on the
/// diagonal, port-pair caps off it (symmetric).
std::vector<std::vector<double>> cap_matrix(const RcNetwork& reduced, size_t np) {
    std::vector<std::vector<double>> c(np, std::vector<double>(np, 0.0));
    for (const auto& e : reduced.capacitances) {
        const auto a = static_cast<size_t>(e.a);
        if (e.b < 0) {
            c[a][a] += e.value;
        } else {
            c[a][static_cast<size_t>(e.b)] += e.value;
            c[static_cast<size_t>(e.b)][a] += e.value;
        }
    }
    return c;
}

/// reduce_by_solve against both dense oracles: port conductances against
/// the Schur complement, capacitances against the DC-weight lumping.
void expect_matches_oracles(const RcNetwork& net, const std::vector<int>& ports) {
    const size_t np = ports.size();
    const RcNetwork red = reduce_by_solve(net, ports);
    ASSERT_EQ(red.node_count, np);
    const auto gref = dense_port_conductance(net, ports);
    const auto g = port_matrix(red, np);
    for (size_t i = 0; i < np; ++i)
        for (size_t j = 0; j < np; ++j)
            EXPECT_NEAR(g[i][j], gref[i][j],
                        1e-8 * std::sqrt(gref[i][i] * gref[j][j]))
                << "G(" << i << "," << j << ")";

    const auto cref = dense_port_capacitance(net, ports);
    const auto c = cap_matrix(red, np);
    double cmax = 0.0;
    for (const auto& row : cref)
        for (double v : row) cmax = std::max(cmax, v);
    ASSERT_GT(cmax, 0.0);
    for (size_t i = 0; i < np; ++i)
        for (size_t j = 0; j < np; ++j)
            EXPECT_NEAR(c[i][j], cref[i][j], 1e-9 * cmax) << "C(" << i << "," << j << ")";
}

TEST(ReduceBySolveTest, CapacitanceSplitsByConductanceDivider) {
    // Ports A, B, P and one internal node k tied to A by 1 S, to B by 3 S
    // and to ground by 0.5 S: k's DC influence weights are 1/4.5 on A and
    // 3/4.5 on B.  A 4 fF cap from k to ground splits onto A's and B's
    // ground caps; a 2 fF cap from P to k becomes P-A and P-B caps, and
    // the 0.5/4.5 share that k passes to ground becomes P's ground cap.
    const int a = 0, b = 1, p = 2, k = 3;
    RcNetwork net;
    net.node_count = 4;
    net.add_g(k, a, 1.0);
    net.add_g(k, b, 3.0);
    net.add_g(k, -1, 0.5);
    net.add_c(k, -1, 4e-15);
    net.add_c(p, k, 2e-15);
    const std::vector<int> ports{a, b, p};
    const double fF = 1e-15, tol = 1e-27;
    for (const auto& c : {cap_matrix(reduce_by_solve(net, ports), ports.size()),
                          dense_port_capacitance(net, ports)}) {
        EXPECT_NEAR(c[a][a], 4 * fF / 4.5, tol);
        EXPECT_NEAR(c[b][b], 12 * fF / 4.5, tol);
        EXPECT_NEAR(c[p][a], 2 * fF / 4.5, tol);
        EXPECT_NEAR(c[p][b], 6 * fF / 4.5, tol);
        EXPECT_NEAR(c[p][p], 1 * fF / 4.5, tol);
        EXPECT_EQ(c[a][b], 0.0);
    }
}

TEST(ReduceBySolveTest, MatchesDirectOraclesOnCoarseSubstrateMesh) {
    // A coarse mesh of the VCO's slab stack (10 x 8 x 7 = 560 nodes) with
    // three resistive contacts and one capacitive well, attached the way the
    // substrate extractor attaches ports.  Small enough for the dense
    // oracles; the 0.8-120 um slabs and stiff contacts make G_ii
    // ill-conditioned enough that a 1e-9 CG residual misses both bounds.
    substrate::MeshOptions mo;
    mo.z_steps = testcases::vco_flow_options().substrate.mesh.z_steps;
    mo.focus = geom::Rect(0, 0, 100, 80);
    mo.fine_pitch = 10.0;
    mo.margin = 0.0;
    substrate::Mesh mesh(mo.focus, tech::generic180().substrate(), mo);
    ASSERT_EQ(mesh.node_count(), 560u);

    RcNetwork& net = mesh.network();
    std::vector<int> ports;
    auto attach = [&](const geom::Rect& r, double g_total, double c_per_area) {
        const int pnode = mesh.add_aux_node();
        ports.push_back(pnode);
        double area = 0.0;
        for (const auto& [node, a] : mesh.surface_overlap(r)) area += a;
        for (const auto& [node, a] : mesh.surface_overlap(r)) {
            if (g_total > 0.0) net.add_g(pnode, node, g_total * a / area);
            if (c_per_area > 0.0) net.add_c(pnode, node, c_per_area * a);
        }
    };
    attach(geom::Rect(5, 5, 25, 15), 0.5, 0.0);        // 2 ohm taps
    attach(geom::Rect(70, 60, 95, 75), 0.5, 0.0);
    attach(geom::Rect(40, 30, 50, 40), 0.5, 0.0);
    attach(geom::Rect(10, 50, 40, 75), 0.0, 0.08e-15); // n-well
    expect_matches_oracles(net, ports);
}

/// random_grounded_network with a ground cap at every node.
RcNetwork random_rc_network(size_t n, int chords, uint64_t seed) {
    RcNetwork net = random_grounded_network(n, chords, seed);
    Rng rng(seed + 1000);
    for (size_t i = 0; i < n; ++i)
        net.add_c(static_cast<int>(i), -1, rng.uniform(0.5e-15, 3e-15));
    return net;
}

int add_node(RcNetwork& net) { return static_cast<int>(net.node_count++); }

TEST(ReduceBySolveTest, LaneBlocksMatchOraclesAtEveryPortCount) {
    // Ports are solved four at a time: 1, 5, 6 and 7 ports leave 3, 3, 2
    // and 1 idle lanes in the last block.
    const RcNetwork net = random_rc_network(60, 90, 11);
    for (size_t np : {1u, 5u, 6u, 7u}) {
        SCOPED_TRACE(np);
        std::vector<int> ports;
        for (size_t i = 0; i < np; ++i) ports.push_back(static_cast<int>(1 + i * 60 / np));
        expect_matches_oracles(net, ports);
    }
}

TEST(ReduceBySolveTest, CapacitiveOnlyPortNextToResistivePorts) {
    // A well port touches the mesh through capacitance only: its right-hand
    // side is zero, so its lane is done before the first sweep while the
    // resistive ports of its block iterate.
    RcNetwork net = random_rc_network(60, 90, 13);
    const int well = add_node(net);
    for (int k : {20, 21, 22, 33}) net.add_c(well, k, 2e-15);
    expect_matches_oracles(net, {0, 15, well, 45});
}

TEST(ReduceBySolveTest, MixedPortCapsMatchDenseOracle) {
    // A port with both a conductance and capacitances into internal nodes:
    // the shares of its cap plates that reach the port itself are shorted,
    // and its ground cap sums the lumped internal ground caps and the
    // plates' remainders to ground.
    RcNetwork net = random_rc_network(60, 90, 17);
    const int mixed = add_node(net);
    net.add_g(mixed, 30, 0.7);
    net.add_g(mixed, 31, 0.4);
    net.add_c(mixed, 31, 3e-15);
    net.add_c(mixed, 40, 1e-15);
    expect_matches_oracles(net, {0, 10, mixed, 50, 55});
}

TEST(ReduceBySolveTest, EveryNodeAPortKeepsTheNetwork) {
    // n_internal = 0: no CG block runs and the port matrix is Gpp itself.
    RcNetwork net = random_rc_network(6, 4, 19);
    net.add_c(1, 4, 5e-15);
    expect_matches_oracles(net, {3, 0, 5, 1, 4, 2});
}

TEST(ReduceBySolveTest, ScaledKernelMatchesOraclesAcrossTwelveDecades) {
    // Five 5 x 5 layers whose lateral conductances step down by 1e3 from
    // 1e6 S at the top to 1e-6 S at the bottom, each joined to the next by
    // the geometric mean of the two, a bottom layer grounded through 1e-6 S
    // legs and a ground cap at every node.  One port per layer is tied to
    // an off-centre node with its layer's conductance.  The RIC(0) pivots
    // then span twelve decades, and the unit-pivot scaling rescales the
    // entries of G_ii by as much.
    constexpr int side = 5, layers = 5;
    auto id = [](int x, int y, int z) { return (z * side + y) * side + x; };
    RcNetwork net;
    net.node_count = static_cast<size_t>(side * side * layers);
    Rng rng(29);
    for (int z = 0; z < layers; ++z) {
        const double g = std::pow(10.0, 6 - 3 * z);
        for (int y = 0; y < side; ++y)
            for (int x = 0; x < side; ++x) {
                if (x + 1 < side) net.add_g(id(x, y, z), id(x + 1, y, z), g);
                if (y + 1 < side) net.add_g(id(x, y, z), id(x, y + 1, z), g);
                if (z + 1 < layers)
                    net.add_g(id(x, y, z), id(x, y, z + 1), g * std::pow(10.0, -1.5));
                else
                    net.add_g(id(x, y, z), -1, 1e-6);
                net.add_c(id(x, y, z), -1, rng.uniform(0.5e-15, 3e-15));
            }
    }
    std::vector<int> ports;
    for (int z = 0; z < layers; ++z) {
        const int port = add_node(net);
        ports.push_back(port);
        net.add_g(port, id(1 + z % 3, 3 - z % 2, z), std::pow(10.0, 6 - 3 * z));
    }
    expect_matches_oracles(net, ports);
}

TEST(ReduceBySolveTest, ProbeSpansTwoLaneBlocks) {
    // Five probes run as a block of four and a block of one.  The
    // excitations are a fixed xorshift sequence, so four probes solve the
    // first four of the same five and their worst error cannot be larger.
    const RcNetwork net = random_grounded_network(120, 200, 23);
    const std::vector<int> ports{0, 17, 33, 52, 71, 90, 104};
    const RcNetwork red = reduce_by_solve(net, ports);
    const double e4 = probe_reduction_error(net, red, ports, 4);
    const double e5 = probe_reduction_error(net, red, ports, 5);
    EXPECT_TRUE(std::isfinite(e5));
    EXPECT_LT(e5, substrate::kReductionErrorMax);
    EXPECT_GE(e5, e4);
}

/// FNV-1a 64 over each element's a (4 bytes), b (4 bytes) and value
/// (8 bytes), conductances first, then capacitances.
uint64_t network_digest(const RcNetwork& net) {
    uint64_t h = 0xcbf29ce484222325ull;
    auto feed = [&h](const void* data, size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (size_t i = 0; i < size; ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const auto* elems : {&net.conductances, &net.capacitances})
        for (const auto& e : *elems) {
            static_assert(sizeof e.a == 4 && sizeof e.b == 4 && sizeof e.value == 8);
            feed(&e.a, 4);
            feed(&e.b, 4);
            feed(&e.value, 8);
        }
    return h;
}

TEST(ReduceBySolveTest, FigureMeshReductionsMatchFrozenDigest) {
    // The reduced substrate networks of the fig3 NMOS structure (the mesh
    // options of bench/fig3_nmos_transfer.cpp) and the nominal VCO, element
    // order and bits included.  The mesh and the RIC(0) pivots use only
    // + - * / and the unit-pivot scaling and the CG add only sqrt, so the
    // digests hold on every IEEE-754 x86-64 build at any optimisation
    // level.
    core::FlowOptions nmos;
    nmos.substrate.mesh.focus = geom::Rect(-20, -20, 50, 30);
    nmos.substrate.mesh.fine_pitch = 3.0;
    nmos.substrate.mesh.margin = 40.0;
    auto fig3 = testcases::build_model(testcases::build_nmos_structure(), nmos);
    ASSERT_FALSE(fig3.substrate.mor_fallback);
    EXPECT_EQ(network_digest(fig3.substrate.reduced), 0xfbce6c4e92da162dull);

    // fig3's transfer values from the stitched model: the bias sweep of
    // bench/fig3_nmos_transfer.cpp, the real and imaginary parts of each
    // transfer at 5 MHz folded as raw doubles.  This pins everything that
    // shapes the NMOS flow past its substrate reduction: the surface
    // patches, the tap and via cut pitch, the interconnect's touch
    // resistance and capacitance floor, the OP clamp and the OP and AC
    // gmin.  The device models call libm, so unlike the reduction digests
    // this one rests on libm's results too; it reads the same in Release,
    // RelWithDebInfo and -O0 builds.
    using testcases::NmosStructure;
    auto& nl = fig3.netlist;
    auto* vg = nl.find_as<circuit::VSource>(NmosStructure::kGateSource);
    uint64_t h = 0xcbf29ce484222325ull;
    for (double bias : linspace(0.7, 1.6, 10)) {
        vg->set_waveform(circuit::Waveform::dc(bias));
        const auto xop = sim::operating_point(nl);
        for (const auto& tr : sim::transfer_multi(
                 nl, NmosStructure::kNoiseSource,
                 {NmosStructure::kOut, NmosStructure::kBulk, NmosStructure::kSourceNode},
                 {5e6}, xop))
            for (const double part : {tr.h[0].real(), tr.h[0].imag()})
                h = obs::fnv1a64(
                    std::string_view(reinterpret_cast<const char*>(&part), sizeof part), h);
    }
    EXPECT_EQ(h, 0x84765fcd4b5ac9cbull);

    const auto vco =
        testcases::build_model(testcases::build_vco(), testcases::vco_flow_options());
    ASSERT_FALSE(vco.substrate.mor_fallback);
    EXPECT_EQ(network_digest(vco.substrate.reduced), 0x3687d0cbd650b44cull);
}

TEST(ReduceBySolveTest, RelaxedPreconditionerBoundsIterationsOnLayeredMesh) {
    // A 24 x 24 x 8 box mesh shaped like the figure substrates: 2 um
    // lateral cells, slabs 0.5 um thick at the surface and growing x1.8
    // with depth, a conductive surface layer over a resistive bulk, a
    // grounded backside and six contacts tied stiffly to 2 x 2 surface
    // patches.  The worst solve takes 45 iterations with the relaxed
    // modified pivots and 87 with zero-fill IC(0); the bound sits between.
    constexpr int nx = 24, ny = 24, nz = 8;
    constexpr double area = 2.0 * 2.0; // of a cell's top face [um^2]
    const double sigma[nz] = {20, 20, 5, 1, 1, 1, 1, 1};
    double t[nz];
    t[0] = 0.5;
    for (int k = 1; k < nz; ++k) t[k] = 1.8 * t[k - 1];
    auto id = [](int x, int y, int z) { return (z * ny + y) * nx + x; };

    RcNetwork net;
    net.node_count = static_cast<size_t>(nx * ny * nz);
    for (int z = 0; z < nz; ++z)
        for (int y = 0; y < ny; ++y)
            for (int x = 0; x < nx; ++x) {
                const double g_lat = sigma[z] * t[z]; // square cells: the pitch cancels
                if (x + 1 < nx) net.add_g(id(x, y, z), id(x + 1, y, z), g_lat);
                if (y + 1 < ny) net.add_g(id(x, y, z), id(x, y + 1, z), g_lat);
                if (z + 1 < nz)
                    net.add_g(id(x, y, z), id(x, y, z + 1),
                              area / (0.5 * t[z] / sigma[z] + 0.5 * t[z + 1] / sigma[z + 1]));
                else
                    net.add_g(id(x, y, z), -1, area * sigma[z] / (0.5 * t[z]));
            }
    std::vector<int> ports;
    for (const auto& [cx, cy] : {std::pair{3, 3}, std::pair{19, 3}, std::pair{11, 9},
                                 std::pair{3, 19}, std::pair{19, 19}, std::pair{11, 15}}) {
        const int port = add_node(net);
        ports.push_back(port);
        for (int y = cy; y < cy + 2; ++y)
            for (int x = cx; x < cx + 2; ++x) net.add_g(port, id(x, y, 0), 10.0);
    }

    const bool was_enabled = obs::enabled();
    obs::reset();
    obs::set_enabled(true);
    const RcNetwork red = reduce_by_solve(net, ports);
    const auto iters = obs::value_stats("mor/cg_iters");
    const uint64_t sweeps = obs::counter_value("mor/cg_sweeps");
    const uint64_t checks = obs::counter_value("mor/cg_residual_checks");
    obs::reset();
    obs::set_enabled(was_enabled);

    EXPECT_EQ(red.node_count, ports.size());
    ASSERT_TRUE(iters.has_value());
    EXPECT_EQ(iters->count, ports.size());
    EXPECT_LE(iters->max, 65.0);
    // The original-space residual is evaluated only near convergence.
    EXPECT_GT(checks, 0u);
    EXPECT_LE(static_cast<double>(checks), 0.35 * static_cast<double>(sweeps));
}

TEST(ReduceBySolveTest, NonFiniteElementIsRejected) {
    RcNetwork two;
    two.node_count = 2;
    EXPECT_THROW(two.add_g(0, 1, std::numeric_limits<double>::infinity()), Error);
    EXPECT_THROW(two.add_c(0, 1, std::numeric_limits<double>::quiet_NaN()), Error);

    // Finite elements whose solve is not: at 1e300 the right-hand side's
    // norm overflows; with 1e308 inside the chain its diagonal sums to
    // 2e308 = inf and p·Ap is not finite in the first sweep.  Either way
    // CG must stop at once instead of running out its iteration budget.
    for (const double inner : {1e300, 1e308}) {
        SCOPED_TRACE(inner);
        const double outer = inner == 1e300 ? 1e300 : 1.0;
        RcNetwork chain;
        chain.node_count = 400;
        for (int i = 0; i + 1 < 400; ++i)
            chain.add_g(i, i + 1, i == 0 || i == 398 ? outer : inner);
        try {
            reduce_by_solve(chain, {0, 399});
            ADD_FAILURE() << "expected a CG breakdown";
        } catch (const Error& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("not finite or not positive definite"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("ports 0-1"), std::string::npos) << msg;
            EXPECT_EQ(msg.find("failed to converge"), std::string::npos) << msg;
        }
    }
}

struct SolveCase {
    size_t n;
    size_t ports;
};

class ReduceSweep : public ::testing::TestWithParam<SolveCase> {};

TEST_P(ReduceSweep, AgreesWithDenseSchur) {
    const auto param = GetParam();
    auto net = random_grounded_network(param.n, static_cast<int>(2 * param.n), 77);
    std::vector<int> ports;
    for (size_t i = 0; i < param.ports; ++i)
        ports.push_back(static_cast<int>(i * param.n / param.ports));
    const auto gref = dense_port_conductance(net, ports);
    auto red = reduce_by_solve(net, ports);
    auto gred = port_matrix(red, ports.size());
    for (size_t i = 0; i < ports.size(); ++i)
        for (size_t j = 0; j < ports.size(); ++j)
            EXPECT_NEAR(gred[i][j], gref[i][j], 1e-6 * std::fabs(gref[i][i]) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceSweep,
                         ::testing::Values(SolveCase{20, 3}, SolveCase{50, 5},
                                           SolveCase{120, 8}, SolveCase{250, 12}));

} // namespace
} // namespace snim::mor
