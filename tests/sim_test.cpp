#include <gtest/gtest.h>

#include <cmath>

#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/varactor.hpp"
#include "numeric/vecops.hpp"
#include "sim/ac.hpp"
#include "sim/op.hpp"
#include "sim/transfer.hpp"
#include "sim/transient.hpp"
#include "tech/generic180.hpp"
#include "util/units.hpp"

namespace snim::sim {
namespace {

using namespace snim::circuit;
using snim::units::kTwoPi;

TEST(OpTest, VoltageDivider) {
    Netlist nl;
    nl.add<VSource>("v1", nl.node("in"), kGround, Waveform::dc(10.0));
    nl.add<Resistor>("r1", nl.node("in"), nl.node("mid"), 1000.0);
    nl.add<Resistor>("r2", nl.node("mid"), kGround, 3000.0);
    auto x = operating_point(nl);
    EXPECT_NEAR(volt(x, nl.existing_node("mid")), 7.5, 1e-6);
    // Source delivers 10V across 4k = 2.5 mA out of its + terminal.
    auto* v = nl.find_as<VSource>("v1");
    EXPECT_NEAR(v->current(x), 2.5e-3, 1e-8);
}

TEST(OpTest, CurrentSourceIntoResistor) {
    Netlist nl;
    nl.add<ISource>("i1", kGround, nl.node("out"), Waveform::dc(1e-3));
    nl.add<Resistor>("r1", nl.node("out"), kGround, 2000.0);
    auto x = operating_point(nl);
    EXPECT_NEAR(volt(x, nl.existing_node("out")), 2.0, 1e-6);
}

TEST(OpTest, InductorIsDcShort) {
    Netlist nl;
    nl.add<VSource>("v1", nl.node("in"), kGround, Waveform::dc(1.0));
    nl.add<Inductor>("l1", nl.node("in"), nl.node("out"), 1e-9);
    nl.add<Resistor>("r1", nl.node("out"), kGround, 100.0);
    auto x = operating_point(nl);
    EXPECT_NEAR(volt(x, nl.existing_node("out")), 1.0, 1e-6);
    auto* l = nl.find_as<Inductor>("l1");
    EXPECT_NEAR(l->current(x), 1e-2, 1e-7);
}

TEST(OpTest, CapacitorIsDcOpen) {
    Netlist nl;
    nl.add<VSource>("v1", nl.node("in"), kGround, Waveform::dc(5.0));
    nl.add<Resistor>("r1", nl.node("in"), nl.node("out"), 1000.0);
    nl.add<Capacitor>("c1", nl.node("out"), kGround, 1e-12);
    auto x = operating_point(nl);
    EXPECT_NEAR(volt(x, nl.existing_node("out")), 5.0, 1e-6);
}

TEST(OpTest, DiodeResistorNewton) {
    Netlist nl;
    nl.add<VSource>("v1", nl.node("in"), kGround, Waveform::dc(2.0));
    nl.add<Resistor>("r1", nl.node("in"), nl.node("a"), 1000.0);
    nl.add<Diode>("d1", nl.node("a"), kGround, DiodeModel{});
    auto x = operating_point(nl);
    const double va = volt(x, nl.existing_node("a"));
    // Forward drop 0.6-0.85 V, current consistent with the resistor.
    EXPECT_GT(va, 0.55);
    EXPECT_LT(va, 0.9);
    auto* d = nl.find_as<Diode>("d1");
    EXPECT_NEAR(d->current(va), (2.0 - va) / 1000.0, 1e-7);
}

TEST(OpTest, NmosCommonSource) {
    auto t = tech::generic180();
    Netlist nl;
    nl.add<VSource>("vdd", nl.node("vdd"), kGround, Waveform::dc(1.8));
    nl.add<VSource>("vg", nl.node("g"), kGround, Waveform::dc(0.9));
    nl.add<Resistor>("rd", nl.node("vdd"), nl.node("d"), 1000.0);
    nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, kGround,
                   t.mos_model("nch"), MosGeometry{.w = 10, .l = 0.18});
    auto x = operating_point(nl);
    const double vd = volt(x, nl.existing_node("d"));
    EXPECT_GT(vd, 0.05);
    EXPECT_LT(vd, 1.75);
    // KCL at drain: resistor current equals drain current.
    auto* m = nl.find_as<Mosfet>("m1");
    const auto ss = m->small_signal(x);
    EXPECT_NEAR((1.8 - vd) / 1000.0, ss.ids, 1e-6);
}

TEST(OpTest, PmosNmosInverterMidRail) {
    auto t = tech::generic180();
    Netlist nl;
    nl.add<VSource>("vdd", nl.node("vdd"), kGround, Waveform::dc(1.8));
    nl.add<VSource>("vin", nl.node("in"), kGround, Waveform::dc(0.8));
    nl.add<Mosfet>("mn", nl.node("out"), nl.node("in"), kGround, kGround,
                   t.mos_model("nch"), MosGeometry{.w = 2, .l = 0.18});
    nl.add<Mosfet>("mp", nl.node("out"), nl.node("in"), nl.node("vdd"), nl.node("vdd"),
                   t.mos_model("pch"), MosGeometry{.w = 6, .l = 0.18});
    auto x = operating_point(nl);
    const double vout = volt(x, nl.existing_node("out"));
    EXPECT_GT(vout, 0.1);
    EXPECT_LT(vout, 1.7);
}

TEST(OpTest, SingularNetworkThrows) {
    // A node connected only through capacitors has no DC path; gmin keeps
    // the matrix regular, so OP succeeds but the node floats near zero.
    Netlist nl;
    nl.add<Capacitor>("c1", nl.node("a"), kGround, 1e-12);
    auto x = operating_point(nl);
    EXPECT_NEAR(volt(x, nl.existing_node("a")), 0.0, 1e-6);
}

TEST(DcSweepTest, MosfetTransferCurve) {
    auto t = tech::generic180();
    Netlist nl;
    nl.add<VSource>("vd", nl.node("d"), kGround, Waveform::dc(1.5));
    nl.add<VSource>("vg", nl.node("g"), kGround, Waveform::dc(0.0));
    nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, kGround,
                   t.mos_model("nch"), MosGeometry{.w = 10, .l = 0.18});
    auto* m = nl.find_as<Mosfet>("m1");
    auto* vg = nl.find_as<VSource>("vg");
    // Current must be monotonically increasing with gate bias; each bias
    // point is a cold operating point.
    double prev = -1.0;
    for (double v : linspace(0.0, 1.8, 10)) {
        vg->set_waveform(Waveform::dc(v));
        const auto ss = m->small_signal(operating_point(nl));
        EXPECT_GE(ss.ids, prev - 1e-12);
        prev = ss.ids;
    }
}

TEST(AcTest, RcLowPassPole) {
    Netlist nl;
    nl.add<VSource>("vin", nl.node("in"), kGround, Waveform::dc(0.0), AcSpec{1.0, 0.0});
    nl.add<Resistor>("r1", nl.node("in"), nl.node("out"), 1000.0);
    nl.add<Capacitor>("c1", nl.node("out"), kGround, 1e-9);
    auto xop = operating_point(nl);
    const double fpole = 1.0 / (kTwoPi * 1000.0 * 1e-9);
    auto ac = ac_sweep(nl, {fpole / 100.0, fpole, fpole * 100.0}, xop);
    const NodeId out = nl.existing_node("out");
    EXPECT_NEAR(std::abs(ac.at(0, out)), 1.0, 1e-3);
    EXPECT_NEAR(std::abs(ac.at(1, out)), 1.0 / std::sqrt(2.0), 1e-3);
    EXPECT_NEAR(std::abs(ac.at(2, out)), 0.01, 2e-4);
    // Phase at the pole is -45 degrees.
    EXPECT_NEAR(std::arg(ac.at(1, out)), -units::kPi / 4.0, 1e-3);
}

TEST(AcTest, LcTankResonance) {
    Netlist nl;
    nl.add<ISource>("iin", kGround, nl.node("t"), Waveform::dc(0.0), AcSpec{1e-3, 0.0});
    nl.add<Inductor>("l1", nl.node("t"), kGround, 2e-9, 1.0);
    nl.add<Capacitor>("c1", nl.node("t"), kGround, 1.4e-12);
    auto xop = operating_point(nl);
    const double f0 = 1.0 / (kTwoPi * std::sqrt(2e-9 * 1.4e-12));
    auto freqs = linspace(0.8 * f0, 1.2 * f0, 81);
    auto ac = ac_sweep(nl, freqs, xop);
    const NodeId t = nl.existing_node("t");
    size_t kmax = 0;
    double vmax = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
        const double v = std::abs(ac.at(k, t));
        if (v > vmax) {
            vmax = v;
            kmax = k;
        }
    }
    EXPECT_NEAR(freqs[kmax], f0, 0.02 * f0);
    // At resonance the tank impedance is ~ L/(R C) = Q^2 R.
    const double rp = 2e-9 / (1.0 * 1.4e-12);
    EXPECT_NEAR(vmax, 1e-3 * rp, 0.1 * 1e-3 * rp);
}

TEST(AcTest, MosfetGain) {
    auto t = tech::generic180();
    Netlist nl;
    nl.add<VSource>("vdd", nl.node("vdd"), kGround, Waveform::dc(1.8));
    nl.add<VSource>("vg", nl.node("g"), kGround, Waveform::dc(0.8), AcSpec{1.0, 0.0});
    nl.add<Resistor>("rd", nl.node("vdd"), nl.node("d"), 2000.0);
    nl.add<Mosfet>("m1", nl.node("d"), nl.node("g"), kGround, kGround,
                   t.mos_model("nch"), MosGeometry{.w = 10, .l = 0.18});
    auto xop = operating_point(nl);
    auto* m = nl.find_as<Mosfet>("m1");
    const auto ss = m->small_signal(xop);
    auto ac = ac_sweep(nl, {1e3}, xop);
    const double gain = std::abs(ac.at(0, nl.existing_node("d")));
    // |Av| = gm * (Rd || 1/gds)
    const double rout = 1.0 / (1.0 / 2000.0 + ss.gds);
    EXPECT_NEAR(gain, ss.gm * rout, 0.01 * gain);
}

TEST(TransferTest, DividerIsFrequencyFlat) {
    Netlist nl;
    nl.add<VSource>("vin", nl.node("in"), kGround, Waveform::dc(0.0));
    nl.add<Resistor>("r1", nl.node("in"), nl.node("out"), 1000.0);
    nl.add<Resistor>("r2", nl.node("out"), kGround, 1000.0);
    auto xop = operating_point(nl);
    auto tr = transfer(nl, "vin", "out", {1e3, 1e6, 1e9}, xop);
    for (size_t k = 0; k < 3; ++k) EXPECT_NEAR(std::abs(tr.h[k]), 0.5, 1e-9);
    EXPECT_NEAR(tr.mag_db(1), -6.02, 0.01);
}

TEST(TransferTest, IsolatesOtherSources) {
    // A second AC-active source must not contaminate the measurement.
    Netlist nl;
    nl.add<VSource>("vin", nl.node("in"), kGround, Waveform::dc(0.0), AcSpec{1.0, 0.0});
    nl.add<VSource>("vnoise", nl.node("n"), kGround, Waveform::dc(0.0), AcSpec{5.0, 0.0});
    nl.add<Resistor>("r1", nl.node("in"), nl.node("out"), 1000.0);
    nl.add<Resistor>("r2", nl.node("out"), kGround, 1000.0);
    nl.add<Resistor>("r3", nl.node("n"), nl.node("out"), 1000.0);
    auto xop = operating_point(nl);
    auto tr = transfer(nl, "vin", "out", {1e6}, xop);
    // With vnoise suppressed: out = in * (1k||1k)/(1k + 1k||1k) = 1/3.
    EXPECT_NEAR(std::abs(tr.h[0]), 1.0 / 3.0, 1e-9);
    // Original AC specs restored afterwards.
    EXPECT_DOUBLE_EQ(nl.find_as<VSource>("vnoise")->ac().mag, 5.0);
}

TEST(TranTest, RcStepResponse) {
    Netlist nl;
    nl.add<VSource>("vin", nl.node("in"), kGround,
                    Waveform::pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 1.0, 2.0));
    nl.add<Resistor>("r1", nl.node("in"), nl.node("out"), 1000.0);
    nl.add<Capacitor>("c1", nl.node("out"), kGround, 1e-12);
    TranOptions opt;
    opt.tstop = 10e-9;
    opt.dt = 5e-12;
    auto res = transient(nl, {"out"}, opt);
    const auto& v = res.wave("out");
    // Analytic: v(t) = 1 - exp(-(t-1ns)/tau), tau = 1 ns.
    for (size_t k = 0; k < res.time.size(); k += 100) {
        const double t = res.time[k];
        const double expect = t < 1e-9 ? 0.0 : 1.0 - std::exp(-(t - 1e-9) / 1e-9);
        EXPECT_NEAR(v[k], expect, 0.01) << "t=" << t;
    }
}

TEST(TranTest, SinSourceAmplitude) {
    Netlist nl;
    nl.add<VSource>("vin", nl.node("in"), kGround, Waveform::sin(0.5, 0.25, 50e6));
    nl.add<Resistor>("r1", nl.node("in"), kGround, 50.0);
    TranOptions opt;
    opt.tstop = 100e-9;
    opt.dt = 0.1e-9;
    auto res = transient(nl, {"in"}, opt);
    const auto& v = res.wave("in");
    double vmin = 1e9, vmax = -1e9;
    for (double s : v) {
        vmin = std::min(vmin, s);
        vmax = std::max(vmax, s);
    }
    EXPECT_NEAR(vmax, 0.75, 1e-3);
    EXPECT_NEAR(vmin, 0.25, 1e-3);
}

TEST(TranTest, LcRingingFrequency) {
    // Parallel LC released from a charged capacitor rings at f0.
    Netlist nl;
    nl.add<Inductor>("l1", nl.node("t"), kGround, 10e-9);
    nl.add<Capacitor>("c1", nl.node("t"), kGround, 1e-12);
    nl.add<ISource>("kick", kGround, nl.node("t"),
                    Waveform::pwl({{0.0, 0.0}, {0.1e-9, 5e-3}, {0.2e-9, 0.0}}));
    TranOptions opt;
    opt.tstop = 40e-9;
    opt.dt = 2e-12;
    opt.record_start = 1e-9;
    auto res = transient(nl, {"t"}, opt);
    const auto& v = res.wave("t");
    // Count zero crossings to estimate the ringing frequency.
    int crossings = 0;
    for (size_t k = 1; k < v.size(); ++k)
        if ((v[k - 1] < 0) != (v[k] < 0)) ++crossings;
    const double duration = res.time.back() - res.time.front();
    const double f_est = crossings / (2.0 * duration);
    const double f0 = 1.0 / (kTwoPi * std::sqrt(10e-9 * 1e-12));
    EXPECT_NEAR(f_est, f0, 0.03 * f0);
}

TEST(TranTest, TrapezoidalBeatsBackwardEulerOnEnergy) {
    // BE damps an ideal LC tank; trapezoidal preserves amplitude.
    auto run = [&](int order) {
        Netlist nl;
        nl.add<Inductor>("l1", nl.node("t"), kGround, 10e-9);
        nl.add<Capacitor>("c1", nl.node("t"), kGround, 1e-12);
        nl.add<ISource>("kick", kGround, nl.node("t"),
                        Waveform::pwl({{0.0, 0.0}, {0.1e-9, 5e-3}, {0.2e-9, 0.0}}));
        TranOptions opt;
        opt.tstop = 50e-9;
        opt.dt = 5e-12;
        opt.order = order;
        opt.record_start = 45e-9;
        auto res = transient(nl, {"t"}, opt);
        double vmax = 0;
        for (double s : res.wave("t")) vmax = std::max(vmax, std::fabs(s));
        return vmax;
    };
    const double amp_trap = run(2);
    const double amp_be = run(1);
    EXPECT_GT(amp_trap, 3.0 * amp_be);
}

TEST(TranTest, VaractorChargeConservation) {
    // Drive a varactor with a sine through a resistor; average current must
    // settle to ~0 (no DC path through a capacitor).
    auto t = tech::generic180();
    Netlist nl;
    nl.add<VSource>("vin", nl.node("in"), kGround, Waveform::sin(0.9, 0.5, 100e6));
    nl.add<Resistor>("r1", nl.node("in"), nl.node("g"), 500.0);
    nl.add<Varactor>("var", nl.node("g"), kGround, t.varactor_model("nvar"), 200.0);
    TranOptions opt;
    opt.tstop = 100e-9;
    opt.dt = 20e-12;
    opt.record_start = 20e-9; // integer number of periods follows
    auto res = transient(nl, {"in", "g"}, opt);
    const auto& vin = res.wave("in");
    const auto& vg = res.wave("g");
    double iavg = 0.0;
    for (size_t k = 0; k < vin.size(); ++k) iavg += (vin[k] - vg[k]) / 500.0;
    iavg /= static_cast<double>(vin.size());
    EXPECT_NEAR(iavg, 0.0, 2e-6);
}

TEST(TranTest, RejectsBadOptions) {
    Netlist nl;
    nl.add<Resistor>("r1", nl.node("a"), kGround, 100.0);
    TranOptions opt;
    EXPECT_THROW(transient(nl, {"a"}, opt), Error);
    opt.tstop = 1e-9;
    opt.dt = 1e-12;
    EXPECT_THROW(transient(nl, {"nosuchnode"}, opt), Error);
}

struct RcCase {
    double r, c;
};

class RcPoleSweep : public ::testing::TestWithParam<RcCase> {};

TEST_P(RcPoleSweep, PoleAtExpectedFrequency) {
    const auto p = GetParam();
    Netlist nl;
    nl.add<VSource>("vin", nl.node("in"), kGround, Waveform::dc(0.0), AcSpec{1.0, 0.0});
    nl.add<Resistor>("r1", nl.node("in"), nl.node("out"), p.r);
    nl.add<Capacitor>("c1", nl.node("out"), kGround, p.c);
    auto xop = operating_point(nl);
    const double fpole = 1.0 / (kTwoPi * p.r * p.c);
    auto ac = ac_sweep(nl, {fpole}, xop);
    EXPECT_NEAR(std::abs(ac.at(0, nl.existing_node("out"))), 1.0 / std::sqrt(2.0), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Poles, RcPoleSweep,
                         ::testing::Values(RcCase{50.0, 1e-12}, RcCase{1e3, 1e-9},
                                           RcCase{1e6, 1e-6}, RcCase{10.0, 100e-15}));

} // namespace
} // namespace snim::sim
