// Convergence-recovery subsystem: deterministic fault injection drives the
// transient retry ladder, the op-solver homotopy ladder, the MOR unreduced
// fallback and the bench corner guard.  Runs as its own binary because
// faults and registry counters are process-global.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>

#include "circuit/diode.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "core/impact_flow.hpp"
#include "dense_schur.hpp"
#include "mor/elimination.hpp"
#include "obs/bench.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "sim/diagnostics.hpp"
#include "sim/op.hpp"
#include "sim/transient.hpp"
#include "substrate/extractor.hpp"
#include "tech/doping.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

using namespace snim;

namespace {

class RecoveryTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
        sim::set_default_diag_dir(::testing::TempDir());
    }
    void TearDown() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
        sim::set_default_diag_dir("");
    }
};

/// Well-behaved RC lowpass driven by a small sine: converges in 1-2 Newton
/// iterations per step, so every failure in these tests is fault-injected.
circuit::Netlist sine_rc_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 50e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

sim::TranOptions sine_options() {
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 50e-9;
    return opt;
}

/// The diagnostics suite's divergent case: a 100 V edge the 0.5 V clamp can
/// never swallow at the nominal dt — but which micro-stepping CAN resolve.
circuit::Netlist hard_edge_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>(
        "vpulse", nl.node("in"), circuit::kGround,
        circuit::Waveform::pulse(0.0, 100.0, 5.05e-9, 1e-12, 1e-12, 10e-9, 40e-9));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

/// Nonlinear DC testbench: series resistor into a diode, solvable by every
/// homotopy rung.
circuit::Netlist diode_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("v1", nl.node("a"), circuit::kGround,
                             circuit::Waveform::dc(5.0));
    nl.add<circuit::Resistor>("r1", nl.node("a"), nl.node("b"), 1e3);
    nl.add<circuit::Diode>("d1", nl.node("b"), circuit::kGround,
                           circuit::DiodeModel{});
    return nl;
}

obs::Json read_json_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return obs::Json::parse(buf.str());
}

std::string bundle_path_from(const std::string& message) {
    const std::string marker = "diagnosis bundle: ";
    const size_t at = message.find(marker);
    if (at == std::string::npos) return {};
    return message.substr(at + marker.size());
}

/// Max |a-b| over the common prefix, as dB relative to the peak of `a`.
double wave_delta_db(const std::vector<double>& a, const std::vector<double>& b) {
    double peak = 0.0, diff = 0.0;
    const size_t n = std::min(a.size(), b.size());
    for (size_t k = 0; k < n; ++k) {
        peak = std::max(peak, std::fabs(a[k]));
        diff = std::max(diff, std::fabs(a[k] - b[k]));
    }
    if (diff == 0.0) return -300.0;
    return 20.0 * std::log10(diff / std::max(peak, 1e-30));
}

// --- fault framework ------------------------------------------------------

TEST_F(RecoveryTest, ParseSpecAcceptsAllForms) {
    auto s = fault::parse_spec("tran.step.fail");
    EXPECT_EQ(s.point, "tran.step.fail");
    EXPECT_EQ(s.at, 1);
    EXPECT_EQ(s.count, 1);
    s = fault::parse_spec("op.fail@7");
    EXPECT_EQ(s.at, 7);
    EXPECT_EQ(s.count, 1);
    s = fault::parse_spec("tran.step.fail@51x2");
    EXPECT_EQ(s.at, 51);
    EXPECT_EQ(s.count, 2);
    s = fault::parse_spec("mor.cg.fail@1x-1");
    EXPECT_EQ(s.count, -1);
}

TEST_F(RecoveryTest, ParseSpecRejectsMalformedInput) {
    EXPECT_THROW(fault::parse_spec(""), Error);
    EXPECT_THROW(fault::parse_spec("@3"), Error);
    EXPECT_THROW(fault::parse_spec("p@zero"), Error);
    EXPECT_THROW(fault::parse_spec("p@0"), Error);
    EXPECT_THROW(fault::parse_spec("p@1x0"), Error);
    EXPECT_THROW(fault::parse_spec("p@1x-2"), Error);
    EXPECT_THROW(fault::parse_spec("p@1xq"), Error);
}

TEST_F(RecoveryTest, WindowsFireOnExactQueryIndices) {
    fault::arm({"t.point", 3, 2});
    EXPECT_FALSE(fault::fires("t.point")); // query 1
    EXPECT_FALSE(fault::fires("t.point")); // query 2
    EXPECT_TRUE(fault::fires("t.point"));  // query 3
    EXPECT_TRUE(fault::fires("t.point"));  // query 4
    EXPECT_FALSE(fault::fires("t.point")); // query 5: window exhausted
    EXPECT_EQ(fault::queries("t.point"), 5);
    EXPECT_EQ(fault::trips("t.point"), 2);
    // An unrelated point is unaffected.
    EXPECT_FALSE(fault::fires("t.other"));
    fault::clear();
    EXPECT_EQ(fault::queries("t.point"), 0);
    EXPECT_TRUE(fault::armed().empty());
}

TEST_F(RecoveryTest, ArmListParsesCommaSeparatedSpecs) {
    fault::arm_list("a.one,b.two@4x-1,c.three@2x3");
    const auto armed = fault::armed();
    ASSERT_EQ(armed.size(), 3u);
    EXPECT_THROW(fault::arm_list("d.ok,@5"), Error);
}

// --- transient retry ladder -----------------------------------------------

TEST_F(RecoveryTest, StepHalvingRecoversInjectedFailure) {
    auto clean_nl = sine_rc_netlist();
    const auto clean = sim::transient(clean_nl, {"out"}, sine_options());

    fault::arm(fault::parse_spec("tran.step.fail@25x2"));
    auto nl = sine_rc_netlist();
    const auto rec = sim::transient(nl, {"out"}, sine_options());

    EXPECT_EQ(rec.step_retries, 2);
    ASSERT_EQ(rec.time.size(), clean.time.size());
    for (size_t k = 0; k < rec.time.size(); ++k)
        EXPECT_DOUBLE_EQ(rec.time[k], clean.time[k]); // same uniform grid
    // The recovered waveform still meets the paper's accuracy tolerances by
    // a wide margin (micro-stepping only reduces local truncation error).
    EXPECT_LT(wave_delta_db(clean.wave("out"), rec.wave("out")), -40.0);
}

TEST_F(RecoveryTest, HugeStepCountFailsWithErrorNotBadAlloc) {
    // 1e12 steps pass validation (at most 2^53), so the run starts; its
    // waveform reserve is capped, and the injected failure of every attempt
    // at step 1 exhausts the retry ladder and must surface as snim::Error.
    fault::arm(fault::parse_spec("tran.step.fail@1x-1"));
    auto nl = sine_rc_netlist();
    auto opt = sine_options();
    opt.tstop = 1e-3;
    opt.dt = 1e-15;
    try {
        sim::transient(nl, {"out"}, opt);
        FAIL() << "expected the injected step failure";
    } catch (const Error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("step 1 of"), std::string::npos) << message;
        EXPECT_NE(message.find("after 12 rejected attempts"), std::string::npos)
            << message;
    } catch (const std::bad_alloc&) {
        FAIL() << "std::bad_alloc escaped from transient()";
    }
}

TEST_F(RecoveryTest, RecoveryIsDeterministic) {
    fault::arm(fault::parse_spec("tran.step.fail@25x2"));
    fault::arm(fault::parse_spec("tran.newton.nonfinite@80"));
    auto nl1 = sine_rc_netlist();
    const auto r1 = sim::transient(nl1, {"out"}, sine_options());

    fault::clear();
    fault::arm(fault::parse_spec("tran.step.fail@25x2"));
    fault::arm(fault::parse_spec("tran.newton.nonfinite@80"));
    auto nl2 = sine_rc_netlist();
    const auto r2 = sim::transient(nl2, {"out"}, sine_options());

    EXPECT_EQ(r1.step_retries, r2.step_retries);
    ASSERT_EQ(r1.time.size(), r2.time.size());
    const auto& w1 = r1.wave("out");
    const auto& w2 = r2.wave("out");
    for (size_t k = 0; k < w1.size(); ++k) {
        EXPECT_EQ(w1[k], w2[k]) << "at sample " << k; // bitwise identical
        EXPECT_EQ(r1.time[k], r2.time[k]);
    }
}

TEST_F(RecoveryTest, NonfiniteUpdateIsRetriedNotFatal) {
    fault::arm(fault::parse_spec("tran.newton.nonfinite@5"));
    auto nl = sine_rc_netlist();
    const auto res = sim::transient(nl, {"out"}, sine_options());
    EXPECT_EQ(res.step_retries, 1);
    EXPECT_EQ(fault::trips("tran.newton.nonfinite"), 1);
}

TEST_F(RecoveryTest, SingularSystemIsRetriedNotFatal) {
    fault::arm(fault::parse_spec("tran.lu.singular@8"));
    auto nl = sine_rc_netlist();
    const auto res = sim::transient(nl, {"out"}, sine_options());
    EXPECT_EQ(res.step_retries, 1);
    EXPECT_EQ(fault::trips("tran.lu.singular"), 1);
}

TEST_F(RecoveryTest, ExhaustedRetryBudgetWritesRetryHistoryBundle) {
    // A forever-window on step 10: every attempt (at any dt) is rejected, so
    // the ladder must bottom out and the bundle must show the whole descent.
    fault::arm(fault::parse_spec("tran.step.fail@10x-1"));
    auto nl = sine_rc_netlist();
    std::string message;
    try {
        sim::transient(nl, {"out"}, sine_options());
        FAIL() << "forever-fault on step 10 must exhaust the retry ladder";
    } catch (const Error& e) {
        message = e.what();
    }
    EXPECT_NE(message.find("did not converge"), std::string::npos) << message;
    EXPECT_NE(message.find("step 10 of 50"), std::string::npos) << message;
    EXPECT_NE(message.find("rejected attempts"), std::string::npos) << message;

    const std::string path = bundle_path_from(message);
    ASSERT_FALSE(path.empty()) << message;
    const auto doc = read_json_file(path);
    EXPECT_EQ(static_cast<int>(doc.at("schema_version").as_number()),
              sim::kDiagSchemaVersion);
    EXPECT_EQ(static_cast<long>(doc.at("fail_step").as_number()), 10);
    // One rejection per halving, down to the dt/4096 floor.
    const auto& retries = doc.at("retry_history").as_array();
    ASSERT_EQ(retries.size(), 12u);
    EXPECT_EQ(static_cast<long>(doc.at("total_step_retries").as_number()),
              static_cast<long>(retries.size()));
    double prev_dt = 2.0 * sine_options().dt;
    for (const auto& r : retries) {
        EXPECT_EQ(static_cast<long>(r.at("step").as_number()), 10);
        EXPECT_EQ(r.at("reason").as_string(), "no_convergence");
        const double dt_from = r.at("dt_from").as_number();
        EXPECT_LT(dt_from, prev_dt); // strictly descending backoff
        EXPECT_NEAR(r.at("dt_to").as_number(), dt_from / 2.0, 1e-21);
        prev_dt = dt_from;
    }
    // Telemetry rows carry the attempt dt (schema v2 field).
    const auto& tel = doc.at("telemetry").as_array();
    ASSERT_FALSE(tel.empty());
    EXPECT_GT(tel.back().at("dt").as_number(), 0.0);
    EXPECT_LT(tel.back().at("dt").as_number(), sine_options().dt);
}

TEST_F(RecoveryTest, RetryCountersAndDtChannelLandInRegistry) {
    obs::set_enabled(true);
    fault::arm(fault::parse_spec("tran.step.fail@25x2"));
    auto nl = sine_rc_netlist();
    const auto opt = sine_options();
    const auto res = sim::transient(nl, {"out"}, opt);
    EXPECT_EQ(res.step_retries, 2);
    EXPECT_EQ(obs::counter_value("sim/transient/step_retries"), 2u);
    EXPECT_EQ(obs::counter_value("sim/transient/convergence_failures"), 2u);
    const auto dt_ts = obs::ts_get("sim/transient/dt");
    ASSERT_TRUE(dt_ts.has_value());
    // The ladder's policy, attempt by attempt: step 25 is rejected at dt
    // and at dt/2, completes in four dt/4 micro-steps and regrows after
    // those four accepts; four dt/2 accepts later (steps 26 and 27) dt is
    // back.  50 nominal steps, 2 rejected attempts and 5 extra micro-steps
    // make 57 attempts.
    EXPECT_EQ(dt_ts->offered, 57u);
    std::vector<double> expect(24, opt.dt);
    expect.insert(expect.end(), {opt.dt, opt.dt / 2.0});
    expect.insert(expect.end(), 4, opt.dt / 4.0);
    expect.insert(expect.end(), 4, opt.dt / 2.0);
    expect.insert(expect.end(), 23, opt.dt);
    EXPECT_EQ(dt_ts->value, expect);
}

TEST_F(RecoveryTest, HardEdgeIsRescuedByMicroStepping) {
    // No nominal step can take this 100 V edge (the clamp allows 30 V per
    // attempt), but with 1 ps rise and fall the ladder's micro-steps
    // subdivide it into clamp-sized jumps and the run completes.  The
    // diagnostics suite sharpens the same edge to 1 fs, which no micro-step
    // can split, to make the ladder fail.
    auto nl = hard_edge_netlist();
    sim::TranOptions opt;
    opt.dt = 0.1e-9;
    opt.tstop = 10e-9;
    const auto res = sim::transient(nl, {"in", "out"}, opt);
    EXPECT_GE(res.step_retries, 3);
    ASSERT_EQ(res.time.size(), 100u); // the uniform grid survived recovery
    // RC step response: out(t) = 100 (1 - exp(-(t - t_edge)/tau)), tau 1 ns.
    const double t_end = res.time.back();
    const double ref = 100.0 * (1.0 - std::exp(-(t_end - 5.051e-9) / 1e-9));
    const double sim_v = res.wave("out").back();
    EXPECT_NEAR(sim_v, ref, 0.05 * ref);
    // Within the paper's 2 dB figure tolerance with a huge margin.
    EXPECT_LT(std::fabs(20.0 * std::log10(sim_v / ref)), 2.0);
}

// --- op homotopy ladder ---------------------------------------------------

TEST_F(RecoveryTest, LadderReportsWinningRung) {
    auto nl = diode_netlist();
    const auto res = sim::operating_point_ex(nl);
    EXPECT_EQ(res.rung, "newton");
    EXPECT_GT(res.newton_iters, 0);

    fault::clear();
    fault::arm(fault::parse_spec("op.rung.newton"));
    auto nl2 = diode_netlist();
    EXPECT_EQ(sim::operating_point_ex(nl2).rung, "gmin");

    fault::clear();
    fault::arm_list("op.rung.newton,op.rung.gmin");
    auto nl3 = diode_netlist();
    EXPECT_EQ(sim::operating_point_ex(nl3).rung, "source");

    fault::clear();
    fault::arm_list("op.rung.newton,op.rung.gmin,op.rung.source");
    auto nl4 = diode_netlist();
    EXPECT_EQ(sim::operating_point_ex(nl4).rung, "ptran");
}

TEST_F(RecoveryTest, EveryRungFindsTheSameOperatingPoint) {
    auto nl = diode_netlist();
    const auto ref = sim::operating_point_ex(nl);
    const char* vetoes[] = {"op.rung.newton", "op.rung.newton,op.rung.gmin",
                            "op.rung.newton,op.rung.gmin,op.rung.source"};
    for (const char* veto : vetoes) {
        fault::clear();
        fault::arm_list(veto);
        auto nl2 = diode_netlist();
        const auto res = sim::operating_point_ex(nl2);
        ASSERT_EQ(res.x.size(), ref.x.size());
        for (size_t i = 0; i < ref.x.size(); ++i)
            EXPECT_NEAR(res.x[i], ref.x[i], 1e-5)
                << "unknown " << i << " via " << veto;
    }
}

TEST_F(RecoveryTest, FullLadderFailureBundlesRungSummary) {
    fault::arm(fault::parse_spec("op.fail"));
    auto nl = diode_netlist();
    std::string message;
    try {
        sim::operating_point(nl);
        FAIL() << "op.fail must veto the whole ladder";
    } catch (const Error& e) {
        message = e.what();
    }
    EXPECT_NE(message.find("operating point did not converge"), std::string::npos)
        << message;
    const std::string path = bundle_path_from(message);
    ASSERT_FALSE(path.empty()) << message;
    const auto doc = read_json_file(path);
    EXPECT_EQ(doc.at("engine").as_string(), "op");
    EXPECT_EQ(doc.at("reason").as_string(), "fault_injected");
    EXPECT_TRUE(doc.contains("rungs"));
}

TEST_F(RecoveryTest, VetoedRungsAreNamedInTheBundle) {
    fault::arm_list(
        "op.rung.newton,op.rung.gmin,op.rung.source,op.rung.ptran");
    auto nl = diode_netlist();
    std::string message;
    try {
        sim::operating_point(nl);
        FAIL();
    } catch (const Error& e) {
        message = e.what();
    }
    const auto doc = read_json_file(bundle_path_from(message));
    const auto& rungs = doc.at("rungs");
    EXPECT_EQ(rungs.at("newton").as_string(), "fault_injected");
    EXPECT_EQ(rungs.at("ptran").as_string(), "fault_injected");
}

TEST_F(RecoveryTest, RungCountersTrackAttemptsAndWins) {
    obs::set_enabled(true);
    fault::arm(fault::parse_spec("op.rung.newton"));
    auto nl = diode_netlist();
    sim::operating_point_ex(nl);
    EXPECT_EQ(obs::counter_value("sim/op/rung/gmin/attempts"), 1u);
    EXPECT_EQ(obs::counter_value("sim/op/rung/gmin/wins"), 1u);
    EXPECT_EQ(obs::counter_value("sim/op/rung/newton/attempts"), 0u);
    EXPECT_GT(obs::counter_value("sim/op/gmin_steps"), 0u);
}

// --- MOR / extractor graceful degradation ---------------------------------

TEST_F(RecoveryTest, PortsFirstPreservesPortConductance) {
    mor::RcNetwork net;
    net.node_count = 5;
    net.add_g(0, 1, 1e-3);
    net.add_g(1, 2, 2e-3);
    net.add_g(2, 3, 3e-3);
    net.add_g(3, 4, 4e-3);
    net.add_g(1, -1, 5e-4);
    net.add_c(2, -1, 1e-15);
    const std::vector<int> ports{3, 0};

    const auto ref = mor::dense_port_conductance(net, ports);
    const auto perm = mor::ports_first(net, ports);
    EXPECT_EQ(perm.node_count, net.node_count);
    EXPECT_EQ(perm.capacitances.size(), net.capacitances.size());
    const auto got = mor::dense_port_conductance(perm, {0, 1});
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j)
            EXPECT_NEAR(got[i][j], ref[i][j], 1e-15 + 1e-9 * std::fabs(ref[i][j]));
}

substrate::ExtractOptions small_extract_options() {
    substrate::ExtractOptions opt;
    opt.mesh.fine_pitch = 10.0;
    opt.mesh.focus = geom::Rect(0, 0, 60, 20);
    opt.mesh.margin = 20.0;
    opt.mesh.z_steps = {2.0, 8.0};
    return opt;
}

std::vector<substrate::PortSpec> two_contacts() {
    std::vector<substrate::PortSpec> ports(2);
    ports[0].name = "c1";
    ports[0].region.add(geom::Rect(0, 0, 10, 20));
    ports[1].name = "c2";
    ports[1].region.add(geom::Rect(50, 0, 60, 20));
    return ports;
}

TEST_F(RecoveryTest, ExtractorFallsBackToUnreducedMeshOnCgFailure) {
    const auto area = geom::Rect(0, 0, 60, 20);
    const auto profile = tech::DopingProfile::high_ohmic(20.0, 50.0);

    const auto clean =
        substrate::extract_substrate(area, profile, two_contacts(),
                                     small_extract_options());
    EXPECT_FALSE(clean.mor_fallback);
    EXPECT_EQ(clean.reduced.node_count, 2u);

    fault::arm(fault::parse_spec("mor.cg.fail"));
    const auto degraded =
        substrate::extract_substrate(area, profile, two_contacts(),
                                     small_extract_options());
    EXPECT_TRUE(degraded.mor_fallback);
    EXPECT_GT(degraded.reduced.node_count, 2u); // the whole mesh survived
    ASSERT_EQ(degraded.port_names.size(), 2u);

    // Exactness of the degradation: the unreduced network presents the same
    // port conductance matrix as the reduced macromodel (up to CG tolerance).
    const auto g_red = mor::dense_port_conductance(clean.reduced, {0, 1});
    const auto g_full = mor::dense_port_conductance(degraded.reduced, {0, 1});
    for (size_t i = 0; i < 2; ++i)
        for (size_t j = 0; j < 2; ++j)
            EXPECT_NEAR(g_full[i][j], g_red[i][j],
                        1e-12 + 1e-5 * std::fabs(g_red[i][j]));
}

// --- option validation ----------------------------------------------------

TEST_F(RecoveryTest, ValidateOpOptionsNamesTheField) {
    auto expect_raises_naming = [](const sim::OpOptions& opt, const char* field) {
        try {
            sim::validate_op_options(opt);
            FAIL() << "expected a validation error naming " << field;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    sim::OpOptions ok;
    EXPECT_NO_THROW(sim::validate_op_options(ok));

    auto bad = ok;
    bad.max_iter = 0;
    expect_raises_naming(bad, "max_iter");
    // Non-finite tolerances: inf accepts any iterate as converged (a wrong
    // operating point on the first clamped step), NaN never converges.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double v : {inf, nan, -1.0}) {
        bad = ok;
        bad.reltol = v;
        expect_raises_naming(bad, "OpOptions.reltol");
        bad = ok;
        bad.vntol = v;
        expect_raises_naming(bad, "OpOptions.vntol");
    }
}

TEST_F(RecoveryTest, ValidateTranOptionsCoversRecoveryKnobs) {
    auto expect_raises_naming = [](const sim::TranOptions& opt, const char* field) {
        try {
            sim::validate_tran_options(opt);
            FAIL() << "expected a validation error naming " << field;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    sim::TranOptions ok;
    ok.dt = 1e-9;
    ok.tstop = 1e-6;
    EXPECT_NO_THROW(sim::validate_tran_options(ok));

    // The recovery policy itself is constant; what a caller can still set
    // is the checkpoint cadence and the certificate floor.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto bad = ok;
    bad.checkpoint.every_steps = -1;
    expect_raises_naming(bad, "TranOptions.checkpoint.every_steps");
    for (double v : {-1.0, inf, nan}) {
        bad = ok;
        bad.checkpoint.every_s = v;
        expect_raises_naming(bad, "TranOptions.checkpoint.every_s");
    }
    for (double v : {-1.0, 1.5, nan}) {
        bad = ok;
        bad.certify.rcond_min = v;
        expect_raises_naming(bad, "certify.rcond_min");
    }
}

// --- bench corner guard ---------------------------------------------------

TEST_F(RecoveryTest, GuardCornerConvertsErrorsToNotes) {
    obs::ScenarioContext ctx;
    EXPECT_TRUE(ctx.guard_corner("good", [] {}));
    EXPECT_FALSE(ctx.guard_corner("bad", [] { raise("solver exploded"); }));
    ASSERT_EQ(ctx.notes.size(), 1u);
    EXPECT_NE(ctx.notes[0].find("corner 'bad' skipped"), std::string::npos);
    EXPECT_NE(ctx.notes[0].find("solver exploded"), std::string::npos);
    obs::set_enabled(true);
    obs::ScenarioContext ctx2;
    ctx2.guard_corner("counted", [] { raise("nope"); });
    EXPECT_EQ(obs::counter_value("bench/skipped_corners"), 1u);
}

TEST_F(RecoveryTest, ValidateFlowOptionsIsCoveredByImpactFlow) {
    // build_impact_model() runs validate_flow_options first; every check
    // must raise a snim::Error naming its field, before any extraction.
    using core::FlowOptions;
    auto expect_raises_naming = [](const FlowOptions& opt, const char* field) {
        try {
            core::validate_flow_options(opt);
            FAIL() << "expected a validation error naming " << field;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const FlowOptions ok;
    EXPECT_NO_THROW(core::validate_flow_options(ok));

    auto bad = ok;
    for (double p : {0.0, inf, nan}) {
        bad = ok;
        bad.substrate.mesh.fine_pitch = p;
        bad.substrate.mesh.max_pitch = inf; // keeps max_pitch >= fine_pitch
        expect_raises_naming(bad, "FlowOptions.substrate.mesh.fine_pitch");
    }
    for (double g : {1.0, 0.5, inf, nan}) {
        bad = ok;
        bad.substrate.mesh.growth = g;
        expect_raises_naming(bad, "FlowOptions.substrate.mesh.growth");
    }
    bad = ok;
    bad.substrate.mesh.max_pitch = 0.5 * ok.substrate.mesh.fine_pitch;
    expect_raises_naming(bad, "FlowOptions.substrate.mesh.max_pitch");
    const char* const corner_names[] = {"x0", "y0", "x1", "y1"};
    for (int corner = 0; corner < 4; ++corner)
        for (double v : {inf, -inf, nan}) {
            bad = ok;
            geom::Rect& f = bad.substrate.mesh.focus;
            f = geom::Rect(-20, -20, 50, 30);
            double* const c[] = {&f.x0, &f.y0, &f.x1, &f.y1};
            *c[corner] = v;
            const std::string field =
                std::string("FlowOptions.substrate.mesh.focus.") + corner_names[corner];
            expect_raises_naming(bad, field.c_str());
        }
    for (double m : {-1.0, inf, nan}) {
        bad = ok;
        bad.substrate.mesh.margin = m;
        expect_raises_naming(bad, "FlowOptions.substrate.mesh.margin");
    }
    bad = ok;
    bad.substrate.mesh.z_steps.clear();
    expect_raises_naming(bad, "FlowOptions.substrate.mesh.z_steps");
    for (double t : {0.0, -2.0, inf, nan}) {
        bad = ok;
        bad.substrate.mesh.z_steps[3] = t;
        expect_raises_naming(bad, "FlowOptions.substrate.mesh.z_steps[3]");
    }

    // An unbounded max_pitch is legal: the outer cells then only grow by
    // `growth`.
    auto unbounded = ok;
    unbounded.substrate.mesh.max_pitch = inf;
    EXPECT_NO_THROW(core::validate_flow_options(unbounded));
}

} // namespace
