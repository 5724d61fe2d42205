#include <gtest/gtest.h>

#include <cmath>

#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/spice_parser.hpp"
#include "circuit/spice_writer.hpp"
#include "circuit/varactor.hpp"
#include "tech/generic180.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace snim::circuit {
namespace {

TEST(NetlistTest, GroundAliases) {
    Netlist nl;
    EXPECT_EQ(nl.node("0"), kGround);
    EXPECT_EQ(nl.node("gnd"), kGround);
    EXPECT_EQ(nl.node("GND"), kGround);
    EXPECT_EQ(nl.node_count(), 0u);
}

TEST(NetlistTest, NodeCreationAndLookup) {
    Netlist nl;
    const NodeId a = nl.node("a");
    const NodeId b = nl.node("b");
    EXPECT_NE(a, b);
    EXPECT_EQ(nl.node("a"), a);
    EXPECT_EQ(nl.existing_node("b"), b);
    EXPECT_THROW(nl.existing_node("zz"), Error);
    EXPECT_EQ(nl.node_name(a), "a");
    EXPECT_EQ(nl.node_name(kGround), "0");
}

TEST(NetlistTest, DeviceManagement) {
    Netlist nl;
    auto& r = nl.add<Resistor>("load", nl.node("a"), nl.node("0"), 50.0);
    EXPECT_EQ(nl.find("load"), &r);
    EXPECT_EQ(nl.find_as<Resistor>("load"), &r);
    EXPECT_EQ(nl.find_as<Capacitor>("cload"), nullptr);
    EXPECT_THROW(nl.add<Resistor>("load", nl.node("a"), nl.node("0"), 1.0), Error);
}

TEST(NetlistTest, FinalizeAssignsAuxIndices) {
    Netlist nl;
    nl.add<VSource>("v1", nl.node("a"), kGround, Waveform::dc(1.0));
    nl.add<Inductor>("l1", nl.node("a"), nl.node("b"), 1e-9);
    nl.finalize();
    EXPECT_EQ(nl.unknown_count(), 4u); // 2 nodes + 2 branch currents
    auto* v = nl.find("v1");
    auto* l = nl.find("l1");
    EXPECT_GE(v->aux_base(), 2);
    EXPECT_GE(l->aux_base(), 2);
    EXPECT_NE(v->aux_base(), l->aux_base());
}

TEST(NetlistTest, AbsorbMergesSharedNodes) {
    Netlist main;
    main.add<Resistor>("r1", main.node("out"), kGround, 100.0);

    Netlist sub;
    sub.add<Resistor>("rsub", sub.node("port"), sub.node("internal"), 10.0);
    sub.add<Resistor>("rsub2", sub.node("internal"), kGround, 20.0);

    main.absorb(std::move(sub), "sub:", {"port"});
    // "port" NOT in main -> created as shared name; internal got prefixed.
    EXPECT_TRUE(main.has_node("port"));
    EXPECT_TRUE(main.has_node("sub:internal"));
    EXPECT_FALSE(main.has_node("internal"));
    EXPECT_EQ(main.device_count(), 3u);
}

TEST(WaveformTest, DcAndSin) {
    auto w = Waveform::dc(2.5);
    EXPECT_DOUBLE_EQ(w.value(0.0), 2.5);
    EXPECT_DOUBLE_EQ(w.value(1e9), 2.5);

    auto s = Waveform::sin(1.0, 0.5, 1e6);
    EXPECT_NEAR(s.value(0.0), 1.0, 1e-12);
    EXPECT_NEAR(s.value(0.25e-6), 1.5, 1e-9); // quarter period
    EXPECT_NEAR(s.dc_value(), 1.0, 1e-12);
}

TEST(WaveformTest, Pulse) {
    auto p = Waveform::pulse(0.0, 1.8, 1e-9, 0.1e-9, 0.1e-9, 2e-9, 10e-9);
    EXPECT_DOUBLE_EQ(p.value(0.0), 0.0);
    EXPECT_NEAR(p.value(1.05e-9), 0.9, 1e-9);  // mid-rise
    EXPECT_DOUBLE_EQ(p.value(2e-9), 1.8);      // plateau
    EXPECT_DOUBLE_EQ(p.value(5e-9), 0.0);      // back low
    EXPECT_DOUBLE_EQ(p.value(12e-9), 1.8);     // next period plateau
}

TEST(WaveformTest, Pwl) {
    auto w = Waveform::pwl({{0.0, 0.0}, {1.0, 2.0}, {3.0, -2.0}});
    EXPECT_DOUBLE_EQ(w.value(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
    EXPECT_DOUBLE_EQ(w.value(2.0), 0.0);
    EXPECT_DOUBLE_EQ(w.value(9.0), -2.0);
    EXPECT_THROW(Waveform::pwl({{1.0, 0.0}, {0.5, 1.0}}), Error);
}

TEST(PassivesTest, RejectsBadValues) {
    Netlist nl;
    EXPECT_THROW(nl.add<Resistor>("r", nl.node("a"), kGround, 0.0), Error);
    EXPECT_THROW(nl.add<Capacitor>("c", nl.node("a"), kGround, -1e-12), Error);
    EXPECT_THROW(nl.add<Inductor>("l", nl.node("a"), kGround, 0.0), Error);
}

TEST(VaractorTest, CapacitanceLimits) {
    tech::VaractorCard card;
    Netlist nl;
    auto& v = nl.add<Varactor>("var", nl.node("g"), nl.node("w"), card, 100.0);
    EXPECT_NEAR(v.capacitance(-3.0), v.cmin(), 0.01 * v.cmin());
    EXPECT_NEAR(v.capacitance(3.0), v.cmax(), 0.01 * v.cmax());
    EXPECT_GT(v.capacitance(0.5), v.capacitance(-0.5));
}

TEST(VaractorTest, ChargeIsIntegralOfCapacitance) {
    tech::VaractorCard card;
    Netlist nl;
    auto& v = nl.add<Varactor>("var", nl.node("g"), nl.node("w"), card, 50.0);
    // dQ/dV == C(V) by central difference at several biases.
    for (double bias : {-1.0, -0.2, 0.05, 0.3, 1.2}) {
        const double h = 1e-5;
        const double dq = (v.charge(bias + h) - v.charge(bias - h)) / (2 * h);
        EXPECT_NEAR(dq, v.capacitance(bias), 1e-6 * v.cmax());
    }
}

TEST(MosfetTest, SaturationSmallSignal) {
    auto t = tech::generic180();
    Netlist nl;
    auto& m = nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, kGround,
                             t.mos_model("nch"), MosGeometry{.w = 10, .l = 0.18});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    x[static_cast<size_t>(nl.existing_node("d"))] = 1.5;
    x[static_cast<size_t>(nl.existing_node("g"))] = 1.0;
    const auto ss = m.small_signal(x);
    EXPECT_TRUE(ss.on);
    EXPECT_TRUE(ss.saturated);
    EXPECT_GT(ss.ids, 0.0);
    EXPECT_GT(ss.gm, 0.0);
    EXPECT_GT(ss.gds, 0.0);
    EXPECT_GT(ss.gmb, 0.0);
    EXPECT_LT(ss.gmb, ss.gm); // gmb is a fraction of gm
    // Saturation: ids ~ 0.5 kp W/L vov^2 (1 + lambda vds).
    const auto& card = t.mos_model("nch");
    const double vov = 1.0 - ss.vt;
    const double ids_expect =
        0.5 * card.kp * (10.0 / 0.18) * vov * vov * (1.0 + card.lambda * 1.5);
    EXPECT_NEAR(ss.ids, ids_expect, 1e-12);
}

TEST(MosfetTest, CutoffHasNoCurrent) {
    auto t = tech::generic180();
    Netlist nl;
    auto& m = nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, kGround,
                             t.mos_model("nch"), MosGeometry{});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    x[static_cast<size_t>(nl.existing_node("d"))] = 1.0;
    const auto ss = m.small_signal(x);
    EXPECT_FALSE(ss.on);
    EXPECT_DOUBLE_EQ(ss.ids, 0.0);
    EXPECT_DOUBLE_EQ(ss.gm, 0.0);
}

TEST(MosfetTest, TriodeConductance) {
    auto t = tech::generic180();
    Netlist nl;
    auto& m = nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, kGround,
                             t.mos_model("nch"), MosGeometry{.w = 10, .l = 0.18});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    x[static_cast<size_t>(nl.existing_node("d"))] = 0.05;
    x[static_cast<size_t>(nl.existing_node("g"))] = 1.8;
    const auto ss = m.small_signal(x);
    EXPECT_TRUE(ss.on);
    EXPECT_FALSE(ss.saturated);
    // Deep triode: gds ~ kp W/L (vov - vds), much larger than gm.
    EXPECT_GT(ss.gds, ss.gm);
}

TEST(MosfetTest, BodyBiasRaisesThreshold) {
    auto t = tech::generic180();
    Netlist nl;
    auto& m = nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, nl.node("b"),
                             t.mos_model("nch"), MosGeometry{});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    x[static_cast<size_t>(nl.existing_node("d"))] = 1.5;
    x[static_cast<size_t>(nl.existing_node("g"))] = 1.0;
    const double vt0 = m.small_signal(x).vt;
    x[static_cast<size_t>(nl.existing_node("b"))] = -1.0; // reverse body bias
    const double vt1 = m.small_signal(x).vt;
    EXPECT_GT(vt1, vt0);
}

TEST(MosfetTest, SourceDrainSwapSymmetry) {
    // Swapping drain/source voltages must mirror the current.
    auto t = tech::generic180();
    Netlist nl;
    auto& m = nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), nl.node("s"), kGround,
                             t.mos_model("nch"), MosGeometry{});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    const auto nd = static_cast<size_t>(nl.existing_node("d"));
    const auto ng = static_cast<size_t>(nl.existing_node("g"));
    const auto ns = static_cast<size_t>(nl.existing_node("s"));
    x[nd] = 1.0;
    x[ng] = 1.2;
    x[ns] = 0.2;
    const double i_fwd = m.small_signal(x).ids;
    std::swap(x[nd], x[ns]);
    const double i_rev = m.small_signal(x).ids;
    EXPECT_NEAR(i_fwd, -i_rev, 1e-15);
}

TEST(MosfetTest, PmosPolarity) {
    auto t = tech::generic180();
    Netlist nl;
    auto& m = nl.add<Mosfet>("mp", nl.node("d"), nl.node("g"), nl.node("s"), nl.node("s"),
                             t.mos_model("pch"), MosGeometry{.w = 20, .l = 0.18});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    // Source at 1.8, gate at 0.9, drain at 0.5: PMOS on, current out of drain.
    x[static_cast<size_t>(nl.existing_node("s"))] = 1.8;
    x[static_cast<size_t>(nl.existing_node("g"))] = 0.9;
    x[static_cast<size_t>(nl.existing_node("d"))] = 0.5;
    const auto ss = m.small_signal(x);
    EXPECT_TRUE(ss.on);
    EXPECT_LT(ss.ids, 0.0); // conventional current INTO drain is negative
    EXPECT_GT(ss.gm, 0.0);
}

TEST(MosfetTest, JunctionCapsShrinkUnderReverseBias) {
    auto t = tech::generic180();
    Netlist nl;
    auto& m = nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, nl.node("b"),
                             t.mos_model("nch"), MosGeometry{.w = 50, .l = 0.34});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    x[static_cast<size_t>(nl.existing_node("d"))] = 0.0;
    const double cdb0 = m.small_signal(x).cdb;
    x[static_cast<size_t>(nl.existing_node("d"))] = 1.8; // reverse biases D-B
    const double cdb1 = m.small_signal(x).cdb;
    EXPECT_LT(cdb1, cdb0);
    EXPECT_NEAR(cdb0, m.cdb_zero_bias(), 1e-18);
}

TEST(MosfetTest, ChannelStampIsOrientationStableAndMatchesFiniteDifferences) {
    // Independent oracle for the channel stamp, NMOS and PMOS in saturation
    // and triode, each forward and with the D/S voltages exchanged:
    //   * the stamp call sequence (matrix and RHS) does not depend on the
    //     orientation, so the incremental assembler's tape survives a vds
    //     sign change;
    //   * the drain row is the finite-difference Jacobian of small_signal's
    //     drain current and the source row its exact negation;
    //   * the companion reproduces the current: (A x - b) is ids at the
    //     drain row and -ids at the source row.
    const auto t = tech::generic180();
    struct Case {
        const char* model;
        double vd, vg, vs, vb;
        bool saturated;
    };
    const Case cases[] = {
        {"nch", 1.5, 1.0, 0.0, -0.3, true},
        {"nch", 0.1, 1.5, 0.0, -0.3, false},
        {"pch", 0.3, 0.8, 1.8, 2.0, true},
        {"pch", 1.6, 0.3, 1.8, 2.0, false},
    };
    for (const Case& c : cases) {
        Netlist nl;
        const NodeId nodes[4] = {nl.node("d"), nl.node("g"), nl.node("s"), nl.node("b")};
        auto& m = nl.add<Mosfet>("m1", nodes[0], nodes[1], nodes[2], nodes[3],
                                 t.mos_model(c.model), MosGeometry{});
        nl.finalize();
        std::vector<int> rows[2], cols[2], rhs_nodes[2];
        for (int swapped = 0; swapped < 2; ++swapped) {
            const std::string when =
                format("%s %s %s", c.model, c.saturated ? "saturation" : "triode",
                       swapped ? "swapped" : "forward");
            std::vector<double> x(nl.unknown_count(), 0.0);
            const auto at = [&](int k) { return static_cast<size_t>(nodes[k]); };
            x[at(0)] = swapped ? c.vs : c.vd;
            x[at(1)] = c.vg;
            x[at(2)] = swapped ? c.vd : c.vs;
            x[at(3)] = c.vb;
            const auto ss = m.small_signal(x);
            ASSERT_TRUE(ss.on) << when;
            ASSERT_EQ(ss.saturated, c.saturated) << when;

            RealStamper st(nl.unknown_count());
            st.matrix().set_keep_zeros(true);
            st.enable_rhs_tape();
            m.stamp_dc(st, x);
            rows[swapped] = st.matrix().rows();
            cols[swapped] = st.matrix().cols();
            rhs_nodes[swapped] = st.rhs_tape_nodes();
            const auto a = st.matrix().to_dense();

            const double h = 1e-6;
            for (int j = 0; j < 4; ++j) {
                std::vector<double> xp = x, xm = x;
                xp[at(j)] += h;
                xm[at(j)] -= h;
                const double fd = (m.small_signal(xp).ids - m.small_signal(xm).ids) / (2 * h);
                EXPECT_NEAR(a(at(0), at(j)), fd, 1e-6 * std::abs(fd)) << when << " col " << j;
                EXPECT_EQ(a(at(2), at(j)), -a(at(0), at(j))) << when << " col " << j;
            }
            for (const int row : {0, 2}) {
                double r = -st.rhs()[at(row)];
                for (int j = 0; j < 4; ++j) r += a(at(row), at(j)) * x[at(j)];
                const double want = row == 0 ? ss.ids : -ss.ids;
                EXPECT_NEAR(r, want, 1e-9 * std::abs(want)) << when << " row " << row;
            }
        }
        EXPECT_EQ(rows[0], rows[1]) << c.model;
        EXPECT_EQ(cols[0], cols[1]) << c.model;
        EXPECT_EQ(rhs_nodes[0], rhs_nodes[1]) << c.model;
        EXPECT_EQ(rows[0].size(), 8u) << c.model;
        EXPECT_EQ(rhs_nodes[0].size(), 2u) << c.model;
    }
}

TEST(SpiceParserTest, BasicRlcAndSources) {
    const std::string text = R"(test circuit
V1 in 0 dc 1.8 ac 1
R1 in out 1k
C1 out 0 2.2p
L1 out tail 3n rser=2.5
I1 0 tail sin(0 1m 10meg)
.end
)";
    auto res = parse_spice(text);
    EXPECT_EQ(res.title, "test circuit");
    EXPECT_EQ(res.netlist.device_count(), 5u);
    auto* r = res.netlist.find_as<Resistor>("r1");
    ASSERT_NE(r, nullptr);
    EXPECT_DOUBLE_EQ(r->resistance(), 1000.0);
    auto* l = res.netlist.find_as<Inductor>("l1");
    ASSERT_NE(l, nullptr);
    EXPECT_DOUBLE_EQ(l->inductance(), 3e-9);
    EXPECT_DOUBLE_EQ(l->series_res(), 2.5);
}

TEST(SpiceParserTest, MosfetWithModelCard) {
    const std::string text = R"(mos test
.model mynch nmos(vto=0.5 kp=100u gamma=0.4)
M1 d g 0 0 mynch w=20u l=0.18u m=2
V1 d 0 1.5
V2 g 0 1.0
)";
    auto res = parse_spice(text);
    auto* m = res.netlist.find_as<Mosfet>("m1");
    ASSERT_NE(m, nullptr);
    EXPECT_DOUBLE_EQ(m->model().vt0, 0.5);
    EXPECT_DOUBLE_EQ(m->model().kp, 100e-6);
    EXPECT_NEAR(m->geometry().w, 20.0, 1e-9);
    EXPECT_EQ(m->geometry().m, 2);
}

TEST(SpiceParserTest, TechFallbackModels) {
    auto t = tech::generic180();
    const std::string text = "fallback\nM1 d g 0 0 nch w=10u l=0.18u\nV1 d 0 1.2\n";
    auto res = parse_spice(text, &t);
    EXPECT_NE(res.netlist.find_as<Mosfet>("m1"), nullptr);
}

TEST(SpiceParserTest, ContinuationAndComments) {
    const std::string text = "title\n* a comment\nR1 a b\n+ 2k\n* trailing\n";
    auto res = parse_spice(text);
    auto* r = res.netlist.find_as<Resistor>("r1");
    ASSERT_NE(r, nullptr);
    EXPECT_DOUBLE_EQ(r->resistance(), 2000.0);
}

TEST(SpiceParserTest, ErrorsCarryLineNumbers) {
    try {
        parse_spice("t\nR1 a b\n");
        FAIL() << "expected parse error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
    }
    EXPECT_THROW(parse_spice("t\nZx a b 1\n"), Error);
    EXPECT_THROW(parse_spice("t\nM1 d g 0 0 nosuchmodel\n"), Error);

    // The MOS multiplier must be a whole number in int range: a fraction is
    // not truncated, and zero, out-of-range and non-finite values never
    // reach the int cast or the device constructor.
    const auto t = tech::generic180();
    for (const char* m : {"2.5", "0", "3e9", "nan", "inf"}) {
        try {
            parse_spice(format("t\nR1 d 0 1k\nM1 d d 0 0 nch m=%s\n", m), &t);
            ADD_FAILURE() << "expected parse error for m=" << m;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
                << "m=" << m << ": " << e.what();
        }
    }
    auto ok = parse_spice("t\nR1 d 0 1k\nM1 d d 0 0 nch m=4\n", &t);
    const auto* m4 = ok.netlist.find_as<Mosfet>("m1");
    ASSERT_NE(m4, nullptr);
    EXPECT_EQ(m4->geometry().m, 4);
}

TEST(SpiceWriterTest, RoundTrip) {
    const std::string text = R"(roundtrip
V1 in 0 dc 1.8
R1 in out 1k
Cload out 0 2.2p
Gbuf out 0 in 0 10m
)";
    auto first = parse_spice(text);
    const std::string dumped = write_spice(first.netlist, first.title);
    auto second = parse_spice(dumped);
    EXPECT_EQ(second.netlist.device_count(), first.netlist.device_count());
    auto* r = second.netlist.find_as<Resistor>("r1");
    ASSERT_NE(r, nullptr);
    EXPECT_NEAR(r->resistance(), 1000.0, 1e-6);
    auto* c = second.netlist.find_as<Capacitor>("cload");
    ASSERT_NE(c, nullptr);
    EXPECT_NEAR(c->capacitance(), 2.2e-12, 1e-18);
}

TEST(SpiceParserTest, SubcktExpansion) {
    const std::string text = R"(subckt test
.subckt divider in out
R1 in out 1k
R2 out 0 1k
.ends
Vsrc top 0 dc 2
Xa top mid divider
Xb mid 0 divider
)";
    auto res = parse_spice(text);
    // Each instance expands to two resistors with hierarchical names.
    EXPECT_EQ(res.netlist.device_count(), 5u);
    EXPECT_NE(res.netlist.find("rxa.1"), nullptr);
    EXPECT_NE(res.netlist.find("rxb.2"), nullptr);
    // Internal nodes are prefixed, shared ports merge.
    EXPECT_TRUE(res.netlist.has_node("mid"));
    EXPECT_TRUE(res.netlist.has_node("top"));
}

TEST(SpiceParserTest, NestedSubcktInstances) {
    const std::string text = R"(nested
.subckt unit a b
R1 a b 100
.ends
.subckt pair x y
Xu1 x m unit
Xu2 m y unit
.ends
Vs in 0 dc 1
Xp in 0 pair
)";
    auto res = parse_spice(text);
    EXPECT_EQ(res.netlist.device_count(), 3u); // V + 2 expanded resistors
    EXPECT_TRUE(res.netlist.has_node("xxp.m") || res.netlist.has_node("xp.m"));
}

TEST(SpiceParserTest, SubcktErrors) {
    EXPECT_THROW(parse_spice("t\nXa n1 nosuch\n"), Error);
    EXPECT_THROW(parse_spice("t\n.subckt s a\nR1 a 0 1\n"), Error); // unterminated
    EXPECT_THROW(parse_spice("t\n.subckt s a b\nR1 a b 1\n.ends\nXa n1 s\n"),
                 Error); // port count mismatch
}

TEST(DiodeTest, ExponentialAndLimiting) {
    DiodeModel dm;
    Netlist nl;
    auto& d = nl.add<Diode>("d1", nl.node("a"), kGround, dm);
    EXPECT_NEAR(d.current(0.0), 0.0, 1e-18);
    EXPECT_GT(d.current(0.7), 1e-6);
    EXPECT_LT(d.current(-1.0), 0.0);
    // Far forward bias must not overflow.
    EXPECT_TRUE(std::isfinite(d.current(5.0)));
    EXPECT_TRUE(std::isfinite(d.conductance(5.0)));
}

} // namespace
} // namespace snim::circuit
