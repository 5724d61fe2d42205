#include <gtest/gtest.h>

#include <cmath>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "mor/macromodel.hpp"
#include "sim/op.hpp"
#include "substrate/analytic.hpp"
#include "substrate/extractor.hpp"
#include "substrate/mesh.hpp"
#include "substrate/ports.hpp"
#include "tech/generic180.hpp"
#include "util/error.hpp"

namespace snim::substrate {
namespace {

namespace L = snim::tech::layers;

TEST(MeshTest, GradedEdgesCoverInterval) {
    auto e = graded_edges(0.0, 100.0, 40.0, 60.0, 5.0, 1.5, 30.0, 100);
    EXPECT_DOUBLE_EQ(e.front(), 0.0);
    EXPECT_DOUBLE_EQ(e.back(), 100.0);
    for (size_t i = 1; i < e.size(); ++i) EXPECT_GT(e[i], e[i - 1]);
    // Fine region is meshed at the fine pitch.
    for (size_t i = 1; i < e.size(); ++i) {
        if (e[i - 1] >= 40.0 && e[i] <= 60.0) {
            EXPECT_LE(e[i] - e[i - 1], 5.0 + 1e-9);
        }
    }
}

TEST(MeshTest, GradedEdgesRespectCellCap) {
    auto e = graded_edges(0.0, 1000.0, 0.0, 1000.0, 1.0, 1.3, 5.0, 64);
    EXPECT_LE(e.size(), 65u);
    EXPECT_DOUBLE_EQ(e.front(), 0.0);
    EXPECT_DOUBLE_EQ(e.back(), 1000.0);
}

TEST(MeshTest, GeometryAndIndexing) {
    MeshOptions opt;
    opt.fine_pitch = 10.0;
    opt.growth = 1.5;
    opt.focus = geom::Rect(0, 0, 40, 30);
    opt.z_steps = {1.0, 2.0};
    opt.margin = 0.0;
    Mesh mesh(geom::Rect(0, 0, 40, 30), tech::DopingProfile::high_ohmic(20, 30), opt);
    EXPECT_EQ(mesh.nx(), 4);
    EXPECT_EQ(mesh.ny(), 3);
    EXPECT_EQ(mesh.node_count(), 4u * 3u * 2u);
    EXPECT_EQ(mesh.node(0, 0, 0), 0);
    EXPECT_EQ(mesh.node(3, 2, 1), 23);
    EXPECT_THROW(mesh.node(4, 0, 0), Error);
}

TEST(MeshTest, SurfaceOverlapAreas) {
    MeshOptions opt;
    opt.fine_pitch = 10.0;
    opt.focus = geom::Rect(0, 0, 40, 40);
    opt.z_steps = {5.0};
    opt.margin = 0.0;
    Mesh mesh(geom::Rect(0, 0, 40, 40), tech::DopingProfile::high_ohmic(20, 5), opt);
    // A rect covering exactly one cell.
    auto ov = mesh.surface_overlap(geom::Rect(0, 0, 10, 10));
    ASSERT_EQ(ov.size(), 1u);
    EXPECT_NEAR(ov[0].second, 100.0, 1e-9);
    // A rect straddling 4 cells equally.
    ov = mesh.surface_overlap(geom::Rect(5, 5, 15, 15));
    ASSERT_EQ(ov.size(), 4u);
    for (auto [node, a] : ov) EXPECT_NEAR(a, 25.0, 1e-9);
}

TEST(MeshTest, NetworkIsConnected) {
    MeshOptions opt;
    opt.fine_pitch = 10.0;
    opt.focus = geom::Rect(0, 0, 30, 30);
    opt.z_steps = {1.0, 4.0};
    opt.margin = 0.0;
    Mesh mesh(geom::Rect(0, 0, 30, 30), tech::DopingProfile::high_ohmic(20, 5), opt);
    // 3x3x2 grid: x-links 12, y-links 12, z-links 9 -> 33 conductances.
    EXPECT_EQ(mesh.network().conductances.size(), 33u);
    // High-ohmic profile: no backside ground legs.
    for (const auto& e : mesh.network().conductances) EXPECT_GE(e.b, 0);
}

TEST(MeshTest, EpiBacksideGrounded) {
    MeshOptions opt;
    opt.fine_pitch = 10.0;
    opt.focus = geom::Rect(0, 0, 30, 30);
    opt.z_steps = {1.0, 4.0};
    opt.margin = 0.0;
    Mesh mesh(geom::Rect(0, 0, 30, 30), tech::DopingProfile::epi(), opt);
    size_t ground_legs = 0;
    for (const auto& e : mesh.network().conductances)
        if (e.b < 0) ++ground_legs;
    EXPECT_EQ(ground_legs, 9u);
}

TEST(AnalyticTest, SpreadingResistanceFormulas) {
    // 20 ohm cm, 10 um disc: R = 0.2 / (4 * 10e-6) = 5000 ohm.
    EXPECT_NEAR(disc_spreading_resistance(20.0, 10.0), 5000.0, 1e-9);
    EXPECT_NEAR(equivalent_disc_radius(10.0, 10.0), 5.6419, 1e-3);
    EXPECT_NEAR(potential_ratio_at_distance(10.0, 100.0), 0.0637, 1e-3);
    EXPECT_GT(two_contact_resistance(20.0, 10.0, 100.0), 0.0);
}

TEST(ExtractorTest, TwoContactResistanceMatchesAnalytic) {
    // Two 20x20 um contacts 150 um apart on a 20 ohm cm wafer; FDM with a
    // coarse grid should land within ~35% of the analytic estimate.
    const double rho = 20.0;
    ExtractOptions opt;
    opt.mesh.fine_pitch = 8.0;
    opt.mesh.focus = geom::Rect(-20, -20, 190, 40);
    opt.mesh.margin = 80.0;

    std::vector<PortSpec> ports(2);
    ports[0].name = "c1";
    ports[0].region.add(geom::Rect(0, 0, 20, 20));
    ports[0].contact_resistance = 1e-3; // ideal contact: spreading R only
    ports[1].name = "c2";
    ports[1].region.add(geom::Rect(150, 0, 170, 20));
    ports[1].contact_resistance = 1e-3;

    auto model = extract_substrate(geom::Rect(0, 0, 170, 20),
                                   tech::DopingProfile::high_ohmic(rho, 250.0), ports, opt);
    ASSERT_EQ(model.reduced.node_count, 2u);
    // Port-to-port resistance from the reduced conductances.
    double g12 = 0.0;
    for (const auto& e : model.reduced.conductances)
        if (e.b >= 0) g12 += e.value;
    ASSERT_GT(g12, 0.0);
    const double r12 = 1.0 / g12;
    const double a = equivalent_disc_radius(20.0, 20.0);
    const double ref = two_contact_resistance(rho, a, 160.0);
    EXPECT_NEAR(r12, ref, 0.35 * ref) << "fdm=" << r12 << " analytic=" << ref;
}

TEST(ExtractorTest, AttenuationDecaysWithDistance) {
    // Probe ports at increasing distance from an injector: the transfer
    // (voltage divider vs a far ground ring) must decay monotonically.
    ExtractOptions opt;
    opt.mesh.fine_pitch = 10.0;
    opt.mesh.focus = geom::Rect(-70, -70, 270, 130);
    opt.mesh.margin = 60.0;

    std::vector<PortSpec> ports;
    PortSpec inj;
    inj.name = "sub";
    inj.region.add(geom::Rect(0, 0, 20, 20));
    inj.contact_resistance = 1.0;
    ports.push_back(inj);
    PortSpec ring;
    ring.name = "gr";
    ring.region = geom::Region(geom::make_ring(geom::Rect(-60, -60, 260, 120), 10.0));
    ring.contact_resistance = 0.5;
    ports.push_back(ring);
    for (int k = 0; k < 3; ++k) {
        PortSpec probe;
        probe.name = "p" + std::to_string(k);
        const double x = 60.0 + 60.0 * k;
        probe.region.add(geom::Rect(x, 0, x + 10, 10));
        probe.kind = PortKind::Probe;
        ports.push_back(probe);
    }
    auto model = extract_substrate(geom::Rect(-60, -60, 260, 120),
                                   tech::DopingProfile::high_ohmic(), ports, opt);

    // Solve the reduced network: 1 V on "sub", ground ring at 0.
    circuit::Netlist nl;
    mor::instantiate(model.reduced, nl, model.port_names, "s:");
    nl.add<circuit::VSource>("vsub", nl.existing_node("sub"), circuit::kGround,
                             circuit::Waveform::dc(1.0));
    nl.add<circuit::Resistor>("rgr", nl.existing_node("gr"), circuit::kGround, 1e-3);
    auto x = sim::operating_point(nl);
    const double v0 = circuit::volt(x, nl.existing_node("p0"));
    const double v1 = circuit::volt(x, nl.existing_node("p1"));
    const double v2 = circuit::volt(x, nl.existing_node("p2"));
    EXPECT_GT(v0, v1);
    EXPECT_GT(v1, v2);
    EXPECT_GT(v2, 0.0);
    EXPECT_LT(v0, 1.0);
}

TEST(ExtractorTest, PortOutsideAreaThrows) {
    std::vector<PortSpec> ports(1);
    ports[0].name = "far";
    ports[0].region.add(geom::Rect(1e5, 1e5, 1e5 + 10, 1e5 + 10));
    ExtractOptions opt;
    opt.mesh.fine_pitch = 15.0;
    EXPECT_THROW(extract_substrate(geom::Rect(0, 0, 100, 100),
                                   tech::DopingProfile::high_ohmic(), ports, opt),
                 Error);
}

TEST(ExtractorTest, CapacitivePortHasNoDcPath) {
    ExtractOptions opt;
    opt.mesh.fine_pitch = 12.0;
    opt.mesh.margin = 20.0;
    std::vector<PortSpec> ports(2);
    ports[0].name = "tap";
    ports[0].region.add(geom::Rect(0, 0, 10, 10));
    ports[0].contact_resistance = 2.0;
    ports[1].name = "well";
    ports[1].region.add(geom::Rect(40, 40, 80, 80));
    ports[1].kind = PortKind::Capacitive;
    ports[1].cap_per_area = 0.08e-15;
    auto model = extract_substrate(geom::Rect(0, 0, 100, 100),
                                   tech::DopingProfile::high_ohmic(), ports, opt);
    // The well port (index 1) must appear only in capacitances.
    for (const auto& e : model.reduced.conductances) {
        EXPECT_NE(e.a, 1);
        EXPECT_NE(e.b, 1);
    }
    double cwell = 0.0;
    for (const auto& e : model.reduced.capacitances)
        if (e.a == 1 || e.b == 1) cwell += e.value;
    // 40x40 um2 * 0.08 aF/um2 = 128 fF... (0.08e-15 F/um^2 * 1600 um^2).
    EXPECT_NEAR(cwell, 0.08e-15 * 1600.0, 0.1e-15);
}

TEST(PortsFromLayoutTest, TapsAndWells) {
    auto t = tech::generic180();
    std::vector<layout::Shape> shapes{
        {L::kMetal[0], geom::Rect(0, 0, 30, 2)},
        {L::kSubTap, geom::Rect(1, 0.5, 2, 1.5)},
        {L::kSubTap, geom::Rect(25, 0.5, 26, 1.5)},
        {L::kNWell, geom::Rect(50, 50, 90, 90)},
    };
    std::vector<layout::Label> labels{
        {"vgnd", L::kMetal[0], {15, 1}},
        {"vdd", L::kNWell, {70, 70}},
    };
    auto nets = layout::extract_connectivity(shapes, labels, t);
    auto ports = ports_from_layout(shapes, nets, labels, t);
    // The two taps are far apart: they cluster into separate ports
    // "vgnd!sub0" / "vgnd!sub1" plus one well port.
    ASSERT_EQ(ports.size(), 3u);
    int found_tap = 0;
    bool found_well = false;
    for (const auto& p : ports) {
        if (p.name == tap_port_name("vgnd") + "0" || p.name == tap_port_name("vgnd") + "1") {
            ++found_tap;
            EXPECT_EQ(p.kind, PortKind::Resistive);
            EXPECT_EQ(p.region.rects().size(), 1u);
        }
        if (p.name == well_port_name("vdd")) {
            found_well = true;
            EXPECT_EQ(p.kind, PortKind::Capacitive);
            EXPECT_GT(p.cap_per_area, 0.0);
        }
    }
    EXPECT_EQ(found_tap, 2);
    EXPECT_TRUE(found_well);
}

} // namespace
} // namespace snim::substrate
