// Numerical-health observability: condition estimates vs exact dense
// condition numbers, componentwise backward error + iterative refinement,
// the accuracy-budget ledger, transient KCL audits, engine certificate
// sites, MOR reduction-error probes and the snim_report budget view.  Own
// binary (ctest label `obs`): it arms global fault windows and asserts on
// the process-global registry, ledger and event journal.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>

#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "mor/elimination.hpp"
#include "numeric/certify.hpp"
#include "numeric/condest.hpp"
#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/vecops.hpp"
#include "obs/certify.hpp"
#include "obs/compare.hpp"
#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "sim/ac.hpp"
#include "sim/op.hpp"
#include "sim/transient.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace snim;

namespace {

class CertifyTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
        obs::set_events_active(false);
    }
    void TearDown() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
        obs::set_events_active(false);
    }
};

/// Diagonally-dominant random sparse system in the shape of an MNA matrix.
Triplets<double> random_mna(Rng& rng, size_t n) {
    Triplets<double> t(n);
    for (size_t i = 0; i < n; ++i) t.add(i, i, 3.0 + rng.uniform(0, 1));
    for (int k = 0; k < static_cast<int>(4 * n); ++k)
        t.add(static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
              static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
              rng.uniform(-1, 1));
    return t;
}

/// Exact 1-norm reciprocal condition number via n dense inverse columns.
double exact_rcond(const DenseMatrix<double>& a) {
    const size_t n = a.rows();
    DenseLU<double> lu(a);
    double inv_norm = 0.0;
    for (size_t j = 0; j < n; ++j) {
        std::vector<double> e(n, 0.0);
        e[j] = 1.0;
        const std::vector<double> col = lu.solve(e);
        double s = 0.0;
        for (double v : col) s += std::fabs(v);
        inv_norm = std::max(inv_norm, s);
    }
    return 1.0 / (norm1(a) * inv_norm);
}

circuit::Netlist sine_rc_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 50e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

// --- condition estimation -------------------------------------------------

TEST_F(CertifyTest, CondestBracketsExactRcondOnRandomMatrices) {
    Rng rng(41);
    for (int trial = 0; trial < 12; ++trial) {
        const size_t n = static_cast<size_t>(rng.uniform_int(4, 50));
        const Triplets<double> t = random_mna(rng, n);
        const SparseCSC<double> a(t);
        const SparseLU<double> lu(a);
        const double exact = exact_rcond(a.to_dense());
        const double est = lu.rcond_estimate();
        // Hager's power iteration LOWER-bounds ||A^-1||_1, so the derived
        // rcond UPPER-bounds the exact one (up to solve roundoff)...
        EXPECT_GE(est, exact * 0.99) << "n=" << n << " trial=" << trial;
        // ...and in practice lands within a small factor of it.
        EXPECT_LE(est, exact * 20.0) << "n=" << n << " trial=" << trial;
    }
}

TEST_F(CertifyTest, DenseAndSparseEstimatesAgree) {
    Rng rng(7);
    const Triplets<double> t = random_mna(rng, 24);
    const SparseCSC<double> a(t);
    const double sparse_est = SparseLU<double>(a).rcond_estimate();
    const double dense_est = DenseLU<double>(a.to_dense()).rcond_estimate();
    EXPECT_GT(dense_est, 0.0);
    EXPECT_NEAR(std::log10(sparse_est), std::log10(dense_est), 1.0);
}

TEST_F(CertifyTest, NearSingularSystemCollapsesRcond) {
    Triplets<double> t(2);
    t.add(0, 0, 1.0);
    t.add(0, 1, 1.0);
    t.add(1, 0, 1.0);
    t.add(1, 1, 1.0 + 1e-12); // rank deficient up to 1e-12
    const SparseLU<double> lu{SparseCSC<double>(t)};
    EXPECT_LT(lu.rcond_estimate(), 1e-9);

    Triplets<double> id(3);
    for (size_t i = 0; i < 3; ++i) id.add(i, i, 1.0);
    const SparseLU<double> eye{SparseCSC<double>(id)};
    EXPECT_GT(eye.rcond_estimate(), 0.1);
}

TEST_F(CertifyTest, FactorStatsCarryLazyRcond) {
    Triplets<double> t(3);
    for (size_t i = 0; i < 3; ++i) t.add(i, i, 2.0);
    const SparseLU<double> lu{SparseCSC<double>(t)};
    EXPECT_EQ(lu.factor_stats().rcond, 0.0); // lazy: unfilled until asked
    const double est = lu.rcond_estimate();
    EXPECT_GT(est, 0.0);
    EXPECT_EQ(lu.factor_stats().rcond, est);
}

// --- backward error and refinement ----------------------------------------

TEST_F(CertifyTest, BackwardErrorIsTinyOnHealthySolveAndSeesPerturbation) {
    Rng rng(11);
    const Triplets<double> t = random_mna(rng, 30);
    const SparseCSC<double> a(t);
    const SparseLU<double> lu(a);
    std::vector<double> b(30);
    for (double& v : b) v = rng.uniform(-1, 1);
    std::vector<double> x = lu.solve(b);
    const double omega = componentwise_backward_error(a, x, b);
    EXPECT_LT(omega, 1e-13);

    std::vector<double> bad = x;
    for (double& v : bad) v *= 1.0 + 1e-6;
    const double omega_bad = componentwise_backward_error(a, bad, b);
    EXPECT_GT(omega_bad, 1e-8);
    const double refined = refine_once(lu, a, bad, b);
    EXPECT_LT(refined, 1e-12); // one step on exact factors restores it
}

TEST_F(CertifyTest, CertifySolveRefinesOnlyWhenBreached) {
    Rng rng(13);
    const Triplets<double> t = random_mna(rng, 16);
    const SparseCSC<double> a(t);
    const SparseLU<double> lu(a);
    std::vector<double> b(16, 1.0);
    std::vector<double> x = lu.solve(b);
    const std::vector<double> x0 = x;

    obs::CertifyOptions opt;
    obs::SolveCertificate cert = certify_solve(lu, a, x, b, opt);
    EXPECT_FALSE(cert.breach);
    EXPECT_EQ(cert.refine_steps, 0);
    EXPECT_EQ(x, x0) << "clean solve must stay bit-identical";

    for (double& v : x) v *= 1.0 + 1e-5; // breach kCertifyOmegaMax
    cert = certify_solve(lu, a, x, b, opt);
    EXPECT_EQ(cert.refine_steps, 1);
    EXPECT_LT(cert.omega, obs::kCertifyOmegaMax);
    EXPECT_FALSE(cert.breach);
}

TEST_F(CertifyTest, ValidateCertifyOptionsNamesTheBadKnob) {
    obs::CertifyOptions opt;
    obs::validate_certify_options(opt, "Test"); // defaults pass
    opt.rcond_min = 1.5;
    EXPECT_THROW(obs::validate_certify_options(opt, "Test"), Error);
}

// --- the accuracy-budget ledger -------------------------------------------

TEST_F(CertifyTest, LedgerAggregationIsOrderIndependent) {
    obs::set_enabled(true);
    obs::budget_update("s", 1.0, 5.0, "V", true, "b");
    obs::budget_update("s", 2.0, 5.0, "V", true, "a");
    obs::budget_update("s", 2.0, 5.0, "V", true, "c");
    auto snap1 = obs::budget_snapshot();
    obs::budget_reset();
    obs::budget_update("s", 2.0, 5.0, "V", true, "c");
    obs::budget_update("s", 2.0, 5.0, "V", true, "a");
    obs::budget_update("s", 1.0, 5.0, "V", true, "b");
    auto snap2 = obs::budget_snapshot();
    ASSERT_EQ(snap1.size(), 1u);
    ASSERT_EQ(snap2.size(), 1u);
    EXPECT_EQ(snap1[0].worst, 2.0);
    EXPECT_EQ(snap1[0].detail, "a"); // exact tie -> lexicographic winner
    EXPECT_EQ(snap2[0].worst, snap1[0].worst);
    EXPECT_EQ(snap2[0].detail, snap1[0].detail);
    EXPECT_EQ(snap1[0].samples, 3u);
}

TEST_F(CertifyTest, InternedStageMatchesNamedStageAndBuildsDetailLazily) {
    obs::set_enabled(true);
    const obs::BudgetStage stage("h");
    EXPECT_TRUE(obs::budget_snapshot().empty()); // interning alone adds no row
    int built = 0;
    auto detail_of = [&](const char* d) {
        return [&built, d] {
            ++built;
            return std::string(d);
        };
    };
    obs::budget_update_lazy(stage, 2.0, 5.0, "V", true, detail_of("b")); // opens
    obs::budget_update_lazy(stage, 1.0, 5.0, "V", true, detail_of("z")); // better
    obs::budget_update_lazy(stage, 2.0, 5.0, "V", true, detail_of("a")); // tie
    obs::budget_update_lazy(stage, 2.0, 5.0, "V", true, detail_of("c")); // tie
    EXPECT_EQ(built, 3);
    obs::budget_update("n", 2.0, 5.0, "V", true, "b");
    obs::budget_update("n", 1.0, 5.0, "V", true, "z");
    obs::budget_update("n", 2.0, 5.0, "V", true, "a");
    obs::budget_update("n", 2.0, 5.0, "V", true, "c");
    const auto snap = obs::budget_snapshot();
    ASSERT_EQ(snap.size(), 2u);
    for (const auto& e : snap) {
        EXPECT_EQ(e.worst, 2.0) << e.stage;
        EXPECT_EQ(e.detail, "a") << e.stage;
        EXPECT_EQ(e.samples, 4u) << e.stage;
    }

    // A reset empties the stage; the handle stays bound and reopens it.
    obs::budget_reset();
    EXPECT_TRUE(obs::budget_snapshot().empty());
    EXPECT_TRUE(obs::budget_state().rows.empty());
    obs::budget_update_lazy(stage, 0.5, 5.0, "V", true, detail_of("x"));
    const auto again = obs::budget_snapshot();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].stage, "h");
    EXPECT_EQ(again[0].worst, 0.5);
    EXPECT_EQ(again[0].detail, "x");
    EXPECT_EQ(again[0].samples, 1u);
}

TEST_F(CertifyTest, LedgerMarginSignConvention) {
    obs::set_enabled(true);
    obs::budget_update("under", 1e-3, 1e-2, "A", true);   // headroom
    obs::budget_update("over", 1e-1, 1e-2, "A", true);    // breach
    obs::budget_update("rcond_ok", 1e-6, 1e-14, "1", false);  // lower-is-worse
    obs::budget_update("rcond_bad", 1e-16, 1e-14, "1", false);
    double margins[4] = {0, 0, 0, 0};
    uint64_t breaches[4] = {0, 0, 0, 0};
    for (const auto& e : obs::budget_snapshot()) {
        const int i = e.stage == "under"      ? 0
                      : e.stage == "over"     ? 1
                      : e.stage == "rcond_ok" ? 2
                                              : 3;
        margins[i] = e.margin_db;
        breaches[i] = e.breaches;
    }
    EXPECT_LT(margins[0], 0.0);
    EXPECT_NEAR(margins[1], 20.0, 1e-9); // 10x over -> +20 dB
    EXPECT_LT(margins[2], 0.0);
    EXPECT_GT(margins[3], 0.0);
    EXPECT_EQ(breaches[1], 1u);
    EXPECT_EQ(breaches[0], 0u);
    // Snapshot ranks worst margin first.
    const auto snap = obs::budget_snapshot();
    EXPECT_GE(snap.front().margin_db, snap.back().margin_db);
}

TEST_F(CertifyTest, RecordCertificateFeedsCountersLedgerAndJournal) {
    obs::set_enabled(true);
    obs::set_events_active(true);
    obs::CertifyOptions opt;
    obs::SolveCertificate clean;
    clean.omega = 1e-16;
    clean.rcond = 1e-3;
    const obs::CertSite site("test");
    obs::record_certificate(site, clean, opt);
    EXPECT_EQ(obs::counter_value("numeric/solve_certificates"), 1u);
    EXPECT_EQ(obs::counter_value("numeric/cert_breaches"), 0u);
    EXPECT_EQ(obs::certificate_breach_count(), 0u);

    obs::SolveCertificate bad;
    bad.omega = 1e-3;
    bad.rcond = 1e-16;
    bad.refine_steps = 1;
    bad.breach = true;
    obs::record_certificate(site, bad, opt);
    EXPECT_EQ(obs::counter_value("numeric/cert_breaches"), 1u);
    EXPECT_EQ(obs::counter_value("numeric/ir_refinement_steps"), 1u);
    EXPECT_EQ(obs::certificate_breach_count(), 1u);

    bool breach_stage = false, rcond_stage = false;
    for (const auto& e : obs::budget_snapshot()) {
        if (e.stage == "numeric/test/omega") breach_stage = e.margin_db > 0.0;
        if (e.stage == "numeric/test/rcond") rcond_stage = e.margin_db > 0.0;
    }
    EXPECT_TRUE(breach_stage);
    EXPECT_TRUE(rcond_stage);

    bool saw_event = false;
    for (const std::string& line : obs::event_tail())
        if (line.find("cert_breach") != std::string::npos) saw_event = true;
    EXPECT_TRUE(saw_event);

    obs::reset(); // reset() clears ledger + breach count via budget_reset()
    EXPECT_EQ(obs::certificate_breach_count(), 0u);
    EXPECT_TRUE(obs::budget_snapshot().empty());
}

// --- engine certificate sites ---------------------------------------------

TEST_F(CertifyTest, TransientKclAuditFeedsChannelsAndBudget) {
    obs::set_enabled(true);
    circuit::Netlist nl = sine_rc_netlist();
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 30e-9;
    sim::transient(nl, {"out"}, opt);

    const auto kcl = obs::value_stats("sim/kcl_worst_residual");
    ASSERT_TRUE(kcl.has_value());
    // Every kCertifyStride-th accepted step of 30: steps 0, 8, 16 and 24.
    EXPECT_EQ(kcl->count, 4u);
    EXPECT_LT(kcl->max, sim::kKclMax);
    EXPECT_TRUE(obs::ts_get("sim/transient/kcl_residual").has_value());
    EXPECT_GT(obs::counter_value("numeric/solve_certificates"), 0u);
    EXPECT_EQ(obs::counter_value("numeric/ir_refinement_steps"), 0u);
    EXPECT_EQ(obs::certificate_breach_count(), 0u);

    bool kcl_stage = false;
    for (const auto& e : obs::budget_snapshot())
        if (e.stage == "sim/kcl") {
            kcl_stage = true;
            EXPECT_LT(e.margin_db, 0.0);
            EXPECT_FALSE(e.detail.empty()); // worst node is named
        }
    EXPECT_TRUE(kcl_stage);
}

TEST_F(CertifyTest, CertificationLeavesWaveformsBitIdentical) {
    sim::TranOptions base;
    base.dt = 1e-9;
    base.tstop = 30e-9;

    // Certificates run exactly when the obs registry is on.
    circuit::Netlist n1 = sine_rc_netlist();
    const sim::TranResult r_off = sim::transient(n1, {"out"}, base);

    obs::reset();
    obs::set_enabled(true);
    circuit::Netlist n2 = sine_rc_netlist();
    const sim::TranResult r_on = sim::transient(n2, {"out"}, base);
    EXPECT_GT(obs::counter_value("numeric/solve_certificates"), 0u);

    ASSERT_EQ(r_off.wave("out").size(), r_on.wave("out").size());
    EXPECT_EQ(r_off.wave("out"), r_on.wave("out"))
        << "clean-run certificates must not perturb results";
}

TEST_F(CertifyTest, OpSolveIsCertified) {
    obs::set_enabled(true);
    circuit::Netlist nl;
    nl.add<circuit::VSource>("v1", nl.node("a"), circuit::kGround,
                             circuit::Waveform::dc(1.0));
    nl.add<circuit::Resistor>("r1", nl.node("a"), nl.node("b"), 1e3);
    nl.add<circuit::Resistor>("r2", nl.node("b"), circuit::kGround, 1e3);
    sim::operating_point(nl);
    EXPECT_GE(obs::counter_value("numeric/solve_certificates"), 1u);
    EXPECT_EQ(obs::certificate_breach_count(), 0u);
}

TEST_F(CertifyTest, AcLedgerIsThreadCountIndependent) {
    const std::vector<double> freqs = logspace(1e3, 1e9, 25);

    const int saved_threads = util::default_thread_count();
    auto run = [&](int threads) {
        util::set_default_thread_count(threads);
        obs::reset();
        obs::set_enabled(true);
        circuit::Netlist n2 = sine_rc_netlist();
        n2.finalize();
        sim::ac_sweep(n2, freqs, std::vector<double>(n2.unknown_count(), 0.0));
        return obs::budget_snapshot();
    };
    const auto s1 = run(1);
    const auto s4 = run(4);
    util::set_default_thread_count(saved_threads);
    ASSERT_EQ(s1.size(), s4.size());
    ASSERT_FALSE(s1.empty());
    for (size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1[i].stage, s4[i].stage);
        EXPECT_EQ(s1[i].worst, s4[i].worst) << s1[i].stage;
        EXPECT_EQ(s1[i].samples, s4[i].samples) << s1[i].stage;
    }
}

TEST_F(CertifyTest, InjectedBreachDrivesEventRefinementAndLedger) {
    obs::set_enabled(true);
    obs::set_events_active(true);
    fault::arm(fault::parse_spec("numeric.cert.breach@1"));

    circuit::Netlist nl = sine_rc_netlist();
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 30e-9;
    sim::transient(nl, {"out"}, opt);

    EXPECT_GE(obs::counter_value("numeric/cert_breaches"), 1u);
    EXPECT_GE(obs::counter_value("numeric/ir_refinement_steps"), 1u);
    EXPECT_GE(obs::certificate_breach_count(), 1u);

    bool saw_event = false;
    for (const std::string& line : obs::event_tail())
        if (line.find("cert_breach") != std::string::npos &&
            line.find("fault_injected") != std::string::npos)
            saw_event = true;
    EXPECT_TRUE(saw_event);

    bool omega_stage = false;
    for (const auto& e : obs::budget_snapshot())
        if (e.stage == "numeric/transient/omega") omega_stage = true;
    EXPECT_TRUE(omega_stage);
}

// --- MOR reduction-error probes -------------------------------------------

TEST_F(CertifyTest, ReductionProbeSeparatesExactFromLossy) {
    // Star: 3 ports around one internal hub (Y-Delta transformable, so the
    // Schur reduction is exact).
    mor::RcNetwork net;
    net.node_count = 4;
    net.add_g(0, 3, 1e-3);
    net.add_g(1, 3, 2e-3);
    net.add_g(2, 3, 3e-3);
    net.add_g(3, -1, 1e-4);
    const std::vector<int> ports{0, 1, 2};

    const mor::RcNetwork reduced = mor::reduce_by_solve(net, ports);
    EXPECT_LT(mor::probe_reduction_error(net, reduced, ports), 1e-8);

    mor::RcNetwork lossy = reduced;
    ASSERT_FALSE(lossy.conductances.empty());
    lossy.conductances.pop_back(); // drop one coupling: visibly wrong model
    EXPECT_GT(mor::probe_reduction_error(net, lossy, ports), 1e-3);
}

// --- report plumbing ------------------------------------------------------

TEST_F(CertifyTest, BudgetTableAndBreachGateOnSyntheticReports) {
    auto scenario = [](double margin) {
        obs::JsonObject stage;
        stage.emplace("stage", "numeric/test/omega");
        stage.emplace("unit", "1");
        stage.emplace("worst", 1e-3);
        stage.emplace("threshold", 1e-8);
        stage.emplace("margin_db", margin);
        stage.emplace("samples", 4.0);
        stage.emplace("breaches", margin > 0.0 ? 1.0 : 0.0);
        obs::JsonArray budget;
        budget.emplace_back(std::move(stage));
        obs::JsonObject rt;
        rt.emplace("median_s", 1.0);
        obs::JsonObject s;
        s.emplace("name", "scenario_a");
        s.emplace("runtime", obs::Json(std::move(rt)));
        s.emplace("budget", obs::Json(std::move(budget)));
        obs::JsonArray scenarios;
        scenarios.emplace_back(std::move(s));
        obs::JsonObject root;
        root.emplace("schema_version", 4);
        root.emplace("scenarios", obs::Json(std::move(scenarios)));
        return obs::Json(std::move(root));
    };

    const obs::Json healthy = scenario(-120.0);
    const obs::Json breached = scenario(+12.0);

    EXPECT_FALSE(obs::budget_has_breach(healthy));
    EXPECT_TRUE(obs::budget_has_breach(breached));
    const std::string table = obs::budget_table(breached);
    EXPECT_NE(table.find("numeric/test/omega"), std::string::npos);
    EXPECT_NE(table.find("OVER"), std::string::npos);

    // diff: headroom -> breach must rank as a budget regression.
    const obs::ReportDiff d = obs::diff_reports(healthy, breached);
    bool regressed = false;
    for (const auto& m : d.metrics)
        if (m.metric == "budget/numeric/test/omega")
            regressed = m.verdict == obs::DiffVerdict::Regress;
    EXPECT_TRUE(regressed);
    EXPECT_TRUE(obs::diff_has_regression(d));
}

} // namespace
