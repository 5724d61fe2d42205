// Failure diagnosis bundles, solver-health time-series channels and the
// VCD waveform export: the debugging surface a failed or suspicious run
// leaves behind.  Runs as its own binary (like the obs suite) because the
// channel tests assert on the global registry.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "circuit/diode.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/vcd.hpp"
#include "sim/diagnostics.hpp"
#include "sim/op.hpp"
#include "sim/transient.hpp"
#include "util/error.hpp"

using namespace snim;

namespace {

class DiagnosticsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::reset();
        obs::set_enabled(false);
        obs::set_bundle_dir(::testing::TempDir());
    }
    void TearDown() override {
        obs::reset();
        obs::set_enabled(false);
        obs::set_bundle_dir("");
    }
};

/// RC lowpass driven by a 100 V pulse with 1 fs edges: the transient's
/// 0.5 V Newton clamp caps progress to 60 iterations * 0.5 V = 30 V per
/// attempt, and even the retry ladder's finest micro-step (dt/4096, 24 fs)
/// cannot split the edge, so it can never be swallowed — a deterministic
/// mid-run convergence failure with a clean recorded prefix before it.  The
/// edge sits mid-step (by default between steps 50 and 51) so the failing
/// step index is float-robust.
circuit::Netlist divergent_netlist(double edge = 5.05e-9) {
    circuit::Netlist nl;
    nl.add<circuit::VSource>(
        "vpulse", nl.node("in"), circuit::kGround,
        circuit::Waveform::pulse(0.0, 100.0, edge, 1e-15, 1e-15, 10e-9, 40e-9));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

sim::TranOptions divergent_options() {
    sim::TranOptions opt;
    opt.dt = 0.1e-9;
    opt.tstop = 10e-9;
    return opt;
}

obs::Json read_json_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return obs::Json::parse(buf.str());
}

/// The bundle path out of the thrown message ("diagnosis bundle: <path>").
std::string bundle_path_from(const std::string& message) {
    const std::string marker = "diagnosis bundle: ";
    const size_t at = message.find(marker);
    if (at == std::string::npos) return {};
    return message.substr(at + marker.size());
}

TEST_F(DiagnosticsTest, DivergentTransientWritesWellFormedBundle) {
    auto nl = divergent_netlist();
    const auto opt = divergent_options();
    std::string message;
    try {
        sim::transient(nl, {"in", "out"}, opt);
        FAIL() << "transient across a 100 V step should not converge";
    } catch (const Error& e) {
        message = e.what();
    }
    // The error names the failing time, the step index and the bundle.
    EXPECT_NE(message.find("did not converge"), std::string::npos) << message;
    EXPECT_NE(message.find("t=5.1"), std::string::npos) << message;
    EXPECT_NE(message.find("step 51 of 100"), std::string::npos) << message;
    EXPECT_NE(message.find("after 12 rejected attempts"), std::string::npos) << message;
    EXPECT_NE(message.find("worst node"), std::string::npos) << message;

    const std::string path = bundle_path_from(message);
    ASSERT_FALSE(path.empty()) << message;
    const auto doc = read_json_file(path);
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(static_cast<int>(doc.at("schema_version").as_number()),
              sim::kDiagSchemaVersion);
    EXPECT_EQ(doc.at("engine").as_string(), "transient");
    EXPECT_EQ(doc.at("reason").as_string(), "did not converge");
    EXPECT_NEAR(doc.at("fail_time").as_number(), 5.1e-9, 1e-10);
    EXPECT_EQ(static_cast<long>(doc.at("fail_step").as_number()), 51);

    // Options in effect, per-step residual history, worst nodes by name.
    EXPECT_NEAR(doc.at("options").at("dt").as_number(), 0.1e-9, 1e-15);
    const auto& tel = doc.at("telemetry").as_array();
    ASSERT_FALSE(tel.empty());
    EXPECT_FALSE(tel.back().at("converged").as_bool());
    EXPECT_GT(tel.back().at("residual").as_number(), 0.0);
    EXPECT_GT(tel.back().at("newton_iters").as_number(), 1.0);
    EXPECT_GT(tel.back().at("clamp_hits").as_number(), 0.0);
    for (size_t k = 1; k < tel.size(); ++k)
        EXPECT_LT(tel[k - 1].at("step").as_number(), tel[k].at("step").as_number());
    const auto& worst = doc.at("worst_residual_nodes").as_array();
    ASSERT_FALSE(worst.empty());
    EXPECT_EQ(worst.front().at("node").as_string(), "in");
}

TEST_F(DiagnosticsTest, BundleKeepsRecordedPrefixOfNonConvergedTransient) {
    auto nl = divergent_netlist();
    const auto opt = divergent_options();
    std::string message;
    try {
        sim::transient(nl, {"in", "out"}, opt);
    } catch (const Error& e) {
        message = e.what();
    }
    // The 50 accepted steps before the failing 51st were recorded, and the
    // bundle holds their waveform tail instead of discarding the prefix.
    EXPECT_NE(message.find("50 samples recorded"), std::string::npos) << message;
    const auto doc = read_json_file(bundle_path_from(message));
    const auto& waves = doc.at("waves");
    EXPECT_EQ(static_cast<int>(waves.at("recorded_samples").as_number()), 50);
    ASSERT_EQ(waves.at("time").as_array().size(), 50u);
    const auto& in_wave = waves.at("probes").at("in").as_array();
    ASSERT_EQ(in_wave.size(), 50u);
    // The prefix is the quiet pre-pulse interval: all samples near 0 V.
    for (const auto& v : in_wave) EXPECT_NEAR(v.as_number(), 0.0, 1e-6);
    EXPECT_NEAR(waves.at("dt_sample").as_number(), 0.1e-9, 1e-15);
}

TEST_F(DiagnosticsTest, WaveTailTrimsToLastSamples) {
    // The edge between steps 300 and 301 leaves a 300-sample prefix, longer
    // than the bundle's 256-sample wave tail.
    auto nl = divergent_netlist(30.05e-9);
    auto opt = divergent_options();
    opt.tstop = 40e-9;
    std::string message;
    try {
        sim::transient(nl, {"in"}, opt);
    } catch (const Error& e) {
        message = e.what();
    }
    const auto doc = read_json_file(bundle_path_from(message));
    const auto& waves = doc.at("waves");
    EXPECT_EQ(static_cast<int>(waves.at("recorded_samples").as_number()), 300);
    EXPECT_EQ(static_cast<int>(waves.at("tail_begin").as_number()), 44);
    EXPECT_EQ(waves.at("time").as_array().size(), 256u);
    EXPECT_EQ(waves.at("probes").at("in").as_array().size(), 256u);
}

TEST_F(DiagnosticsTest, OpFailureWritesBundle) {
    // A nonlinear circuit, so DC Newton clamps updates to 0.5 V per
    // iteration: the 10 V node target is 20 clamped steps away, and
    // max_iter=1 cannot reach it on any rung of the homotopy ladder.
    circuit::Netlist nl;
    nl.add<circuit::VSource>("v1", nl.node("a"), circuit::kGround,
                             circuit::Waveform::dc(10.0));
    nl.add<circuit::Resistor>("r1", nl.node("a"), nl.node("b"), 1e3);
    nl.add<circuit::Diode>("d1", nl.node("b"), circuit::kGround,
                           circuit::DiodeModel{});
    sim::OpOptions opt;
    opt.max_iter = 1;
    std::string message;
    try {
        sim::operating_point(nl, opt);
        FAIL() << "one Newton iteration cannot reach a clamped 10 V solution";
    } catch (const Error& e) {
        message = e.what();
    }
    // One iteration each on newton, gmin and source, then seven anchored
    // ones on ptran: g = 1, 10, ..., 1e5 and the 1e6 S ceiling anchor, which
    // the last stiffening lands on exactly before the rung gives up.
    EXPECT_NE(message.find(", 10 Newton iterations over the homotopy ladder"),
              std::string::npos)
        << message;
    const std::string path = bundle_path_from(message);
    ASSERT_FALSE(path.empty()) << message;
    const auto doc = read_json_file(path);
    EXPECT_EQ(doc.at("engine").as_string(), "op");
    EXPECT_FALSE(doc.at("telemetry").as_array().empty());
    for (const char* rung : {"newton", "gmin", "source", "ptran"})
        EXPECT_NE(doc.at("rungs").at(rung).as_string().find("failed after"),
                  std::string::npos)
            << rung;
}

TEST_F(DiagnosticsTest, ValidateTranOptionsNamesTheField) {
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

    auto bad = ok;
    bad.record_start = ok.tstop;
    expect_raises_naming(bad, "record_start");
    bad = ok;
    bad.dt = 0.0;
    expect_raises_naming(bad, "dt");
    bad = ok;
    bad.tstop = -1.0;
    expect_raises_naming(bad, "tstop");
    bad = ok;
    bad.order = 3;
    expect_raises_naming(bad, "order");

    // Non-finite inputs, and step counts the integer step index cannot hold.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    bad = ok;
    bad.tstop = inf;
    expect_raises_naming(bad, "TranOptions.tstop");
    bad = ok;
    bad.dt = inf;
    expect_raises_naming(bad, "TranOptions.dt");
    bad = ok;
    bad.dt = nan;
    expect_raises_naming(bad, "TranOptions.dt");
    bad = ok;
    bad.tstop = 1.0;
    bad.dt = 1e-30;
    expect_raises_naming(bad, "TranOptions.tstop / TranOptions.dt");
    bad = ok;
    bad.reltol = nan;
    expect_raises_naming(bad, "TranOptions.reltol");
    bad = ok;
    bad.vntol = inf;
    expect_raises_naming(bad, "TranOptions.vntol");
    // A NaN start would record nothing, a -inf one every step.
    bad = ok;
    bad.record_start = nan;
    expect_raises_naming(bad, "TranOptions.record_start");
    bad = ok;
    bad.record_start = -inf;
    expect_raises_naming(bad, "TranOptions.record_start");
    // 2^53 steps exactly is still legal.
    auto edge = ok;
    edge.dt = 1.0;
    edge.tstop = 0x1p53;
    EXPECT_NO_THROW(sim::validate_tran_options(edge));
}

TEST_F(DiagnosticsTest, StepTelemetryRingKeepsLastN) {
    sim::StepTelemetryRing ring(4);
    for (long s = 1; s <= 10; ++s) {
        sim::StepTelemetry t;
        t.step = s;
        ring.push(t);
    }
    const auto tail = ring.tail();
    ASSERT_EQ(tail.size(), 4u);
    EXPECT_EQ(tail.front().step, 7);
    EXPECT_EQ(tail.back().step, 10);
}

TEST_F(DiagnosticsTest, WorstUnknownsRanksByMagnitudeAndNamesNodes) {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("v1", nl.node("a"), circuit::kGround,
                             circuit::Waveform::dc(1.0));
    nl.add<circuit::Resistor>("r1", nl.node("a"), nl.node("b"), 1e3);
    nl.add<circuit::Resistor>("r2", nl.node("b"), circuit::kGround, 1e3);
    nl.finalize();
    // Unknowns: ground + a + b node voltages, then the V-source branch.
    std::vector<double> dv(nl.unknown_count(), 0.0);
    dv[nl.existing_node("a")] = -0.25;
    dv[nl.existing_node("b")] = 2.0;
    dv[nl.node_count()] = std::nan("");
    const auto worst = sim::worst_unknowns(nl, dv, 3);
    ASSERT_EQ(worst.size(), 3u);
    EXPECT_EQ(worst[0].first, "branch:0"); // NaN ranks worst of all
    EXPECT_EQ(worst[1].first, "b");
    EXPECT_EQ(worst[2].first, "a");
}

// --- VCD round trip -------------------------------------------------------

TEST_F(DiagnosticsTest, VcdRoundTripsTransientWaves) {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 50e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 100e-9;
    const auto res = sim::transient(nl, {"in", "out"}, opt);

    std::vector<obs::WaveSignal> waves;
    for (size_t p = 0; p < res.probe_names.size(); ++p) {
        obs::WaveSignal w;
        w.name = res.probe_names[p];
        w.unit = "V";
        w.time = res.time;
        w.value = res.waves[p];
        waves.push_back(std::move(w));
    }
    const std::string path = ::testing::TempDir() + "/tran_roundtrip.vcd";
    obs::write_vcd(path, waves);

    const auto back = obs::read_vcd(path);
    ASSERT_EQ(back.size(), 2u);
    for (size_t p = 0; p < back.size(); ++p) {
        EXPECT_EQ(back[p].name, res.probe_names[p]);
        ASSERT_EQ(back[p].time.size(), res.time.size());
        for (size_t k = 0; k < res.time.size(); ++k) {
            // Values are exact (%.17g); times are quantized to the timescale.
            EXPECT_DOUBLE_EQ(back[p].value[k], res.waves[p][k]);
            EXPECT_NEAR(back[p].time[k], res.time[k], 0.5e-9);
        }
    }
}

TEST_F(DiagnosticsTest, VcdRejectsMalformedSignals) {
    obs::WaveSignal w;
    w.name = "x";
    w.time = {0.0, 1e-9};
    w.value = {1.0}; // size mismatch
    EXPECT_THROW(obs::vcd_document({w}), Error);
    w.value = {1.0, 2.0};
    obs::WaveSignal dup = w;
    EXPECT_THROW(obs::vcd_document({w, dup}), Error);
    w.time = {1e-9, 0.0}; // backwards
    EXPECT_THROW(obs::vcd_document({w}), Error);
    EXPECT_THROW(obs::vcd_document({}), Error);
}

TEST_F(DiagnosticsTest, WaveCsvHoldsLastValueAcrossMergedAxes) {
    obs::WaveSignal a;
    a.name = "a";
    a.time = {0.0, 2e-9};
    a.value = {1.0, 3.0};
    obs::WaveSignal b;
    b.name = "b";
    b.time = {1e-9};
    b.value = {7.0};
    const std::string path = ::testing::TempDir() + "/waves.csv";
    obs::write_wave_csv(path, {a, b});
    std::ifstream in(path);
    std::string header, row0, row1, row2;
    std::getline(in, header);
    std::getline(in, row0);
    std::getline(in, row1);
    std::getline(in, row2);
    EXPECT_EQ(header, "time,a,b");
    EXPECT_NE(row0.find(",1,"), std::string::npos) << row0; // b not yet sampled
    EXPECT_NE(row1.find(",1,7"), std::string::npos) << row1;
    EXPECT_NE(row2.find(",3,7"), std::string::npos) << row2; // b holds
}

// --- time-series channels -------------------------------------------------

TEST_F(DiagnosticsTest, DecimationPreservesFirstLastAndMonotoneTime) {
    obs::set_enabled(true);
    const size_t total = 3 * obs::kTimeSeriesCapacity + 17;
    for (size_t k = 0; k < total; ++k)
        obs::ts_append("test/decimate", static_cast<double>(k) * 1e-9,
                       static_cast<double>(k), "V");
    const auto ts = obs::ts_get("test/decimate");
    ASSERT_TRUE(ts.has_value());
    EXPECT_EQ(ts->offered, total);
    EXPECT_GT(ts->stride, 1u);
    EXPECT_LE(ts->time.size(), obs::kTimeSeriesCapacity + 1);
    ASSERT_FALSE(ts->time.empty());
    EXPECT_DOUBLE_EQ(ts->time.front(), 0.0);
    EXPECT_DOUBLE_EQ(ts->value.front(), 0.0);
    EXPECT_DOUBLE_EQ(ts->time.back(), static_cast<double>(total - 1) * 1e-9);
    EXPECT_DOUBLE_EQ(ts->value.back(), static_cast<double>(total - 1));
    for (size_t k = 1; k < ts->time.size(); ++k)
        EXPECT_LT(ts->time[k - 1], ts->time[k]);
}

TEST_F(DiagnosticsTest, TransientFeedsSolverHealthChannels) {
    obs::set_enabled(true);
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 0.1, 10e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 50e-9;
    sim::transient(nl, {"out"}, opt);

    const auto iters = obs::ts_get("sim/transient/newton_iters");
    ASSERT_TRUE(iters.has_value());
    EXPECT_EQ(iters->offered, 50u);
    EXPECT_EQ(iters->unit, "iters");
    for (double v : iters->value) EXPECT_GE(v, 1.0);
    const auto residual = obs::ts_get("sim/transient/residual");
    ASSERT_TRUE(residual.has_value());
    EXPECT_EQ(residual->unit, "V");
    const auto pivot = obs::ts_get("sim/transient/lu_min_pivot");
    ASSERT_TRUE(pivot.has_value());
    for (double v : pivot->value) EXPECT_GT(v, 0.0);
}

TEST_F(DiagnosticsTest, NonFiniteSamplesAreDroppedNotStored) {
    obs::set_enabled(true);
    obs::ts_append("test/nan", 0.0, 1.0);
    obs::ts_append("test/nan", 1.0, std::nan(""));
    obs::ts_append("test/nan", 2.0, HUGE_VAL);
    obs::ts_append("test/nan", 3.0, 2.0);
    const auto ts = obs::ts_get("test/nan");
    ASSERT_TRUE(ts.has_value());
    ASSERT_EQ(ts->value.size(), 2u);
    EXPECT_DOUBLE_EQ(ts->value[0], 1.0);
    EXPECT_DOUBLE_EQ(ts->value[1], 2.0);
    EXPECT_EQ(obs::counter_value("obs/ts_nonfinite_dropped"), 2u);
}

TEST_F(DiagnosticsTest, WaveFromTimeseriesFallsBackToIndexAxis) {
    obs::set_enabled(true);
    obs::ts_append("test/restart", 0.0, 1.0, "V");
    obs::ts_append("test/restart", 1.0, 2.0);
    obs::ts_append("test/restart", 0.5, 3.0); // abscissa restarted
    const auto ts = obs::ts_get("test/restart");
    ASSERT_TRUE(ts.has_value());
    const auto w = obs::wave_from_timeseries(*ts);
    ASSERT_EQ(w.time.size(), 3u);
    EXPECT_DOUBLE_EQ(w.time[0], 0.0);
    EXPECT_DOUBLE_EQ(w.time[1], 1.0);
    EXPECT_DOUBLE_EQ(w.time[2], 2.0);
    EXPECT_NE(w.unit.find("index axis"), std::string::npos);
    // A VCD document built from it is valid (no backwards-time raise).
    EXPECT_NO_THROW(obs::vcd_document({w}));
}

} // namespace
