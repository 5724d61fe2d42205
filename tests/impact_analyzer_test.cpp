// ImpactAnalyzer calibration on a small test-local oscillator: the
// quarter-window captures against the full window, the split-window
// certificate's full-window fallback, and model restoration when a capture
// throws.  Runs in the recovery binary because it arms process-global fault
// windows and reads registry counters.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/varactor.hpp"
#include "core/impact_model.hpp"
#include "obs/certify.hpp"
#include "obs/registry.hpp"
#include "rf/oscillator.hpp"
#include "sim/diagnostics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace snim::core {
namespace {

using namespace snim::circuit;

/// rf_test's cross-coupled VCCS LC tank plus a DC frequency-pulling path: a
/// varactor from each tank node to `ctl`, fed through `rfeed` by the noise
/// source `vnoise` stacked on the lever source `vlev`.
ImpactModel pulled_tank() {
    ImpactModel model;
    Netlist& nl = model.netlist;
    const auto a = nl.node("a");
    const auto b = nl.node("b");
    nl.add<Inductor>("la", a, kGround, 4e-9, 2.0);
    nl.add<Inductor>("lb", b, kGround, 4e-9, 2.0);
    nl.add<Capacitor>("ca", a, kGround, 1e-12);
    nl.add<Capacitor>("cb", b, kGround, 1e-12);
    nl.add<Vccs>("gma", a, kGround, b, kGround, 20e-3);
    nl.add<Vccs>("gmb", b, kGround, a, kGround, 20e-3);
    nl.add<Resistor>("rsat_a", a, kGround, 2000.0);
    nl.add<Resistor>("rsat_b", b, kGround, 2000.0);
    nl.add<Diode>("dlim1", a, b, DiodeModel{});
    nl.add<Diode>("dlim2", b, a, DiodeModel{});
    nl.add<ISource>("kick", kGround, a,
                    Waveform::pwl({{0.0, 0.0}, {0.05e-9, 2e-3}, {0.1e-9, 0.0}}));

    const auto ctl = nl.node("ctl");
    tech::VaractorCard card;
    nl.add<Varactor>("yvar_a", a, ctl, card, 30.0);
    nl.add<Varactor>("yvar_b", b, ctl, card, 30.0);
    nl.add<Resistor>("rfeed", nl.node("noise"), ctl, 10.0);
    nl.add<VSource>("vnoise", nl.node("noise"), nl.node("lever"), Waveform::dc(0.0));
    nl.add<VSource>("vlev", nl.node("lever"), kGround, Waveform::dc(0.3));
    return model;
}

NoiseEntry feed_entry() {
    // Shorting the feed leaves the DC bias of `ctl` as it was, so the path
    // has no DC footprint: capacitive, measured through its lever source.
    return {"feed", {"ctl"}, "vlev", {}, {}, {"rfeed"}};
}

NoiseEntry varactor_entry() {
    // Disabling the varactors removes the whole DC pulling path.
    return {"varactors", {"ctl"}, "", {}, {"yvar"}, {}};
}

AnalyzerOptions tank_options() {
    AnalyzerOptions opt;
    // std::string temporaries: assigning the bare literals trips a GCC 12
    // -Wrestrict false positive in optimised builds.
    opt.osc.probe_p = std::string("a");
    opt.osc.probe_n = std::string("b");
    opt.osc.dt = 5e-12;
    opt.osc.settle = 40e-9;
    opt.osc.capture = 80e-9;
    opt.osc.f_min = 1e9;
    opt.osc.f_max = 5e9;
    return opt;
}

/// The single-window calibration, computed directly from capture_oscillator
/// at opt.osc: the baseline and the +-kCalibrationDv pair.
struct FullWindow {
    rf::OscCapture baseline;
    double k_src = 0.0;
    double g_src = 0.0;
};

FullWindow full_window_calibration(const AnalyzerOptions& opt) {
    auto model = pulled_tank();
    auto* noise = model.netlist.find_as<VSource>("vnoise");
    FullWindow out;
    out.baseline = rf::capture_oscillator(model.netlist, opt.osc);
    noise->set_waveform(Waveform::dc(kCalibrationDv));
    const auto plus = rf::capture_oscillator(model.netlist, opt.osc);
    noise->set_waveform(Waveform::dc(-kCalibrationDv));
    const auto minus = rf::capture_oscillator(model.netlist, opt.osc);
    out.k_src = (plus.fc - minus.fc) / (2.0 * kCalibrationDv);
    out.g_src = (plus.amplitude - minus.amplitude) /
                (2.0 * kCalibrationDv * out.baseline.amplitude);
    return out;
}

/// Makes `point` count its queries without ever firing: fault points only
/// count while a window is armed on them.
void count_queries(const char* point) {
    fault::arm({.point = point, .at = 1L << 40, .count = 1});
}

class ImpactAnalyzerTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(true);
        sim::set_default_diag_dir(::testing::TempDir());
    }
    void TearDown() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
        sim::set_default_diag_dir("");
    }
};

TEST_F(ImpactAnalyzerTest, ConstructorRejectsInvalidOptionsNamingTheField) {
    auto model = pulled_tank();
    auto construct = [&](const AnalyzerOptions& opt) {
        ImpactAnalyzer analyzer(model, "vnoise", {varactor_entry()}, opt);
    };
    auto expect_rejects = [&](const char* field, auto set) {
        AnalyzerOptions bad = tank_options();
        set(bad);
        try {
            construct(bad);
            ADD_FAILURE() << "expected a validation error naming " << field;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NO_THROW(construct(tank_options()));

    expect_rejects("AnalyzerOptions.osc.dt", [](AnalyzerOptions& o) { o.osc.dt = 0.0; });
    expect_rejects("AnalyzerOptions.osc.dt", [&](AnalyzerOptions& o) { o.osc.dt = nan; });
    expect_rejects("AnalyzerOptions.osc.capture",
                   [](AnalyzerOptions& o) { o.osc.capture = -80e-9; });
    expect_rejects("AnalyzerOptions.osc.settle",
                   [](AnalyzerOptions& o) { o.osc.settle = -1e-9; });
    expect_rejects("AnalyzerOptions.osc.settle", [&](AnalyzerOptions& o) { o.osc.settle = inf; });
    expect_rejects("AnalyzerOptions.osc.f_min", [](AnalyzerOptions& o) { o.osc.f_min = 0.0; });
    expect_rejects("AnalyzerOptions.osc.f_max",
                   [](AnalyzerOptions& o) { o.osc.f_max = o.osc.f_min; });
    expect_rejects("AnalyzerOptions.osc.f_max", [&](AnalyzerOptions& o) { o.osc.f_max = nan; });

    // The closed end of the legal settle range.
    AnalyzerOptions edge = tank_options();
    edge.osc.settle = 0.0;
    EXPECT_NO_THROW(construct(edge));
}

TEST_F(ImpactAnalyzerTest, QuarterWindowCalibrationMatchesFullWindow) {
    count_queries("core.calibrate.uncertified");
    auto model = pulled_tank();
    ImpactAnalyzer analyzer(model, "vnoise", {varactor_entry()}, tank_options());
    analyzer.calibrate();
    // One certificate each for the baseline and the K_src pair, no re-run.
    EXPECT_EQ(fault::queries("core.calibrate.uncertified"), 2);
    EXPECT_EQ(obs::counter_value("core/calibration_fallbacks"), 0u);
    EXPECT_EQ(obs::counter_value("core/calibration_pairs"), 2u);

    const auto full = full_window_calibration(tank_options());
    ASSERT_GT(std::fabs(full.k_src), 1e6); // the varactors pull the tank
    EXPECT_NEAR(analyzer.k_src(), full.k_src, 5e-3 * std::fabs(full.k_src));
    EXPECT_NEAR(analyzer.baseline().amplitude, full.baseline.amplitude,
                1e-3 * full.baseline.amplitude);
    EXPECT_NE(analyzer.k_src(), full.k_src); // it really ran the short window
}

TEST_F(ImpactAnalyzerTest, UncertifiedPairFallsBackToFullWindowBitwise) {
    fault::arm({.point = "core.calibrate.uncertified", .at = 1, .count = -1});
    auto model = pulled_tank();
    ImpactAnalyzer analyzer(model, "vnoise", {varactor_entry()}, tank_options());
    analyzer.calibrate();
    // Each certificate failed on the quarter window and again on the full
    // window, whose result was kept.
    EXPECT_EQ(fault::trips("core.calibrate.uncertified"), 4);
    EXPECT_EQ(obs::counter_value("core/calibration_pairs"), 2u);
    EXPECT_EQ(obs::counter_value("core/calibration_fallbacks"), 2u);
    bool breached = false;
    for (const auto& e : obs::budget_snapshot())
        if (e.stage == "core/calibration") breached = e.breaches == 2;
    EXPECT_TRUE(breached);

    fault::clear();
    const auto full = full_window_calibration(tank_options());
    EXPECT_EQ(analyzer.baseline().fc, full.baseline.fc);
    EXPECT_EQ(analyzer.baseline().amplitude, full.baseline.amplitude);
    EXPECT_EQ(analyzer.k_src(), full.k_src);
    EXPECT_EQ(analyzer.g_src(), full.g_src);
}

TEST_F(ImpactAnalyzerTest, FailedCaptureRestoresTheModel) {
    const auto opt = tank_options();
    // Newton solves of a clean run: calibrate(), then calibrate_paths() on
    // the feed path, whose lever pair runs last.
    long calibrate_solves = 0;
    long total_solves = 0;
    {
        count_queries("tran.lu.singular");
        auto model = pulled_tank();
        ImpactAnalyzer analyzer(model, "vnoise", {feed_entry()}, opt);
        analyzer.calibrate();
        calibrate_solves = fault::queries("tran.lu.singular");
        analyzer.calibrate_paths();
        total_solves = fault::queries("tran.lu.singular");
        ASSERT_TRUE(analyzer.paths()[0].capacitive);
        ASSERT_NE(analyzer.paths()[0].lever, 0.0);
    }

    struct Case {
        const char* what;
        NoiseEntry entry;
        long fail_at; // first failing Newton solve; the fault never clears
    };
    const Case cases[] = {
        {"leave-one-out with shorted resistors", feed_entry(), calibrate_solves + 1},
        {"leave-one-out with disabled devices", varactor_entry(), calibrate_solves + 1},
        {"lever pair", feed_entry(), total_solves},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.what);
        fault::clear();
        count_queries("tran.lu.singular");
        auto model = pulled_tank();
        auto& nl = model.netlist;
        ImpactAnalyzer analyzer(model, "vnoise", {c.entry}, opt);
        analyzer.calibrate();
        fault::arm({.point = "tran.lu.singular", .at = c.fail_at, .count = -1});
        EXPECT_THROW(analyzer.calibrate_paths(), Error);
        EXPECT_GT(fault::trips("tran.lu.singular"), 0);

        EXPECT_EQ(nl.find_as<Resistor>("rfeed")->resistance(), 10.0);
        EXPECT_FALSE(nl.find("yvar_a")->disabled());
        EXPECT_FALSE(nl.find("yvar_b")->disabled());
        const auto& noise = nl.find_as<VSource>("vnoise")->waveform();
        EXPECT_EQ(noise.describe(), Waveform::dc(0.0).describe());
        EXPECT_EQ(noise.dc_value(), 0.0);
        const auto& lever = nl.find_as<VSource>("vlev")->waveform();
        EXPECT_EQ(lever.describe(), Waveform::dc(0.3).describe());
        EXPECT_EQ(lever.dc_value(), 0.3);
        EXPECT_EQ(analyzer.options().osc.certify.rcond_min, opt.osc.certify.rcond_min);
        EXPECT_FALSE(analyzer.paths_calibrated());
    }

    // A re-calibration that fails in its K_src pair: the noise source is back
    // at 0 V and the analyzer is not left half updated.
    fault::clear();
    count_queries("tran.lu.singular");
    auto model = pulled_tank();
    ImpactAnalyzer analyzer(model, "vnoise", {feed_entry()}, opt);
    analyzer.calibrate();
    ASSERT_EQ(fault::queries("tran.lu.singular"), calibrate_solves);
    fault::clear();
    fault::arm({.point = "tran.lu.singular", .at = calibrate_solves, .count = -1});
    EXPECT_THROW(analyzer.calibrate(), Error);
    EXPECT_FALSE(analyzer.calibrated());
    EXPECT_EQ(model.netlist.find_as<VSource>("vnoise")->waveform().dc_value(), 0.0);
}

} // namespace
} // namespace snim::core
