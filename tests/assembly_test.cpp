// Incremental transient-assembly suite (DESIGN.md §14).
//
// The contracts under test are bitwise, not approximate:
//   * TranAssembler's baseline-restore + nonlinear-overlay assembly must
//     reproduce `clear + assemble_tran` exactly — across iterations, step
//     attempts, (dt, order) cache keys, commits and forced relearns;
//   * SparseLU::refactor_partial must reproduce a full numeric refactor
//     exactly (unchanged columns would recompute to their stored values, so
//     skipping them cannot change anything downstream);
//   * the transient engine's waveforms must match frozen golden digests
//     bit for bit, and the textbook oracle of tests/reference_transient.*
//     within the Newton tolerance.
// Runs as its own binary (ctest label `perf`) because it arms global fault
// windows and asserts on the global registry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stamp.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/registry.hpp"
#include "reference_transient.hpp"
#include "rf/oscillator.hpp"
#include "sim/assembly.hpp"
#include "sim/mna.hpp"
#include "sim/op.hpp"
#include "sim/transient.hpp"
#include "tech/generic180.hpp"
#include "testcases/vco.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "waveform_digest.hpp"

using namespace snim;

namespace {

class AssemblyTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
    }
    void TearDown() override {
        fault::clear();
        obs::reset();
        obs::set_enabled(false);
    }
};

/// RC ladder with `nmos` MOSFETs tapping gates along it — the static
/// majority plus a small moving nonlinear set, like the paper testcases.
circuit::Netlist mixed_netlist(int stages, int nmos, Rng& rng) {
    circuit::Netlist nl;
    const tech::Technology t = tech::generic180();
    const tech::MosModelCard nch = t.mos_model("nch");
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 0.5, 1e9));
    nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                             circuit::Waveform::dc(1.8));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)),
                                  10.0 + rng.uniform(0, 90));
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-13 * (1 + rng.uniform(0, 3)));
        // Floating coupling caps exercise the 4-entry compiled refresh
        // plan (grounded caps only have the 1-entry shape).
        if (i >= 2 && i % 3 == 0)
            nl.add<circuit::Capacitor>(format("cc%d", i),
                                       nl.node(format("n%d", i - 2)),
                                       nl.node(format("n%d", i + 1)),
                                       2e-14 * (1 + rng.uniform(0, 2)));
    }
    for (int m = 0; m < nmos; ++m) {
        nl.add<circuit::Resistor>(format("rd%d", m), nl.node("vdd"),
                                  nl.node(format("d%d", m)), 1e3);
        nl.add<circuit::Mosfet>(
            format("m%d", m), nl.node(format("d%d", m)),
            nl.node(format("n%d", 1 + (7 * m) % stages)), circuit::kGround,
            circuit::kGround, nch, circuit::MosGeometry{});
    }
    nl.finalize();
    return nl;
}

void expect_bitwise_equal(circuit::RealStamper& inc, circuit::RealStamper& ref,
                          const char* when) {
    const auto& iv = inc.csc().values();
    const auto& rv = ref.csc().values();
    ASSERT_EQ(iv.size(), rv.size()) << when;
    EXPECT_EQ(std::memcmp(iv.data(), rv.data(), iv.size() * sizeof(double)), 0)
        << "matrix diverged: " << when;
    EXPECT_EQ(std::memcmp(inc.rhs().data(), ref.rhs().data(),
                          inc.rhs().size() * sizeof(double)),
              0)
        << "rhs diverged: " << when;
}

// --- TranAssembler vs the full pass ---------------------------------------

TEST_F(AssemblyTest, IncrementalMatchesFullAssemblyAcrossRandomNetlists) {
    Rng rng(1234);
    for (int trial = 0; trial < 5; ++trial) {
        auto nl = mixed_netlist(10 + 5 * trial, 1 + trial % 3, rng);
        const size_t n = nl.unknown_count();
        circuit::RealStamper inc(n), ref(n);
        inc.enable_compiled_assembly();
        ref.enable_compiled_assembly();
        sim::TranAssembler asmb(nl, inc);

        circuit::TranParams tp;
        tp.order = 2;
        std::vector<double> x(n, 0.2);
        // Attempts cycle the retry-ladder dt set (cache keys) and commit
        // between them; iterations random-walk the nonlinear iterate.
        const double dts[] = {10e-12, 5e-12, 10e-12, 2.5e-12, 10e-12};
        for (int a = 0; a < 5; ++a) {
            tp.dt = dts[a];
            tp.time = (a + 1) * 10e-12;
            asmb.begin_attempt(x, tp);
            for (int it = 0; it < 3; ++it) {
                for (size_t i = 0; i < n; ++i)
                    x[i] = 0.9 * x[i] + 0.05 * rng.uniform(0, 1);
                asmb.assemble(x, tp);
                ref.clear();
                sim::assemble_tran(nl, ref, x, tp);
                expect_bitwise_equal(
                    inc, ref,
                    format("trial %d attempt %d it %d", trial, a, it).c_str());
            }
            asmb.commit(x, tp);
        }
        // commit() runs on the plans' cached conductances, so a commit
        // under a (dt, order) no attempt ran with is refused.
        tp.dt *= 3.0;
        EXPECT_THROW(asmb.commit(x, tp), Error) << "trial " << trial;
    }
}

/// Test-local nonlinear device whose stamp *layout* depends on the sign of
/// its branch voltage: a square-law rectifier that stamps its companion
/// only while forward biased.  Real devices keep their stamp sequence
/// value-independent, so this keeps TranAssembler's overlay-failure ->
/// relearn fallback under test.
class SignSwitchedConductance final : public circuit::Device {
public:
    SignSwitchedConductance(std::string name, circuit::NodeId a, circuit::NodeId b,
                            double k)
        : Device(std::move(name), {a, b}), k_(k) {}

    void stamp_dc(circuit::RealStamper& s, const std::vector<double>& x) const override {
        const circuit::NodeId a = nodes()[0], b = nodes()[1];
        const double v = circuit::volt(x, a) - circuit::volt(x, b);
        if (v < 0.0) return; // blocking: no stamp at all
        // i = k v^2 linearised at v: g = 2 k v, ieq = i - g v.
        const double g = 2.0 * k_ * v;
        const double ieq = k_ * v * v - g * v;
        s.admittance(a, b, g);
        s.rhs_current(a, -ieq);
        s.rhs_current(b, ieq);
    }
    void stamp_ac(circuit::ComplexStamper&, const std::vector<double>&,
                  double) const override {}
    circuit::Partition partition() const override {
        return circuit::Partition::Nonlinear;
    }
    std::string card(const circuit::NodeNamer&) const override { return name(); }

private:
    double k_;
};

TEST_F(AssemblyTest, OrientationFlipForcesRelearnAndStaysBitIdentical) {
    obs::set_enabled(true);
    Rng rng(7);
    auto nl = mixed_netlist(12, 2, rng);
    nl.add<SignSwitchedConductance>("xsw", nl.node("n5"), circuit::kGround, 1e-3);
    nl.finalize();
    const size_t n = nl.unknown_count();
    circuit::RealStamper inc(n), ref(n);
    inc.enable_compiled_assembly();
    ref.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, inc);

    circuit::TranParams tp;
    tp.dt = 10e-12;
    tp.order = 2;
    std::vector<double> x(n, 0.5);
    asmb.begin_attempt(x, tp);
    asmb.assemble(x, tp);
    const std::uint64_t epoch0 = asmb.epoch();

    // Pull every node negative: the switched device's branch voltage flips
    // sign, its recorded stamp sequence deviates mid-overlay and the
    // assembler must relearn — and still hand back exactly what the full
    // pass would.
    for (size_t i = 0; i < n; ++i) x[i] = -0.5;
    asmb.assemble(x, tp);
    ref.clear();
    sim::assemble_tran(nl, ref, x, tp);
    expect_bitwise_equal(inc, ref, "after orientation flip");
    EXPECT_GT(asmb.epoch(), epoch0);
    EXPECT_GE(obs::counter_value("sim/assemble_relearn"), 1u);
}

TEST_F(AssemblyTest, MosfetOrientationFlipKeepsTapeAndStaysBitIdentical) {
    obs::set_enabled(true);
    Rng rng(7);
    auto nl = mixed_netlist(12, 2, rng);
    const size_t n = nl.unknown_count();
    circuit::RealStamper inc(n), ref(n);
    inc.enable_compiled_assembly();
    ref.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, inc);

    circuit::TranParams tp;
    tp.dt = 10e-12;
    tp.order = 2;
    std::vector<double> x(n, 0.5);
    asmb.begin_attempt(x, tp);
    asmb.assemble(x, tp);
    const std::uint64_t epoch0 = asmb.epoch();

    // Pull every node negative: every MOSFET's vds flips sign.  The channel
    // stamp carries the orientation in its values, not its positions, so
    // the overlay must go through on the learned tape.
    for (size_t i = 0; i < n; ++i) x[i] = -0.5;
    asmb.assemble(x, tp);
    ref.clear();
    sim::assemble_tran(nl, ref, x, tp);
    expect_bitwise_equal(inc, ref, "after MOSFET orientation flip");
    EXPECT_EQ(asmb.epoch(), epoch0);
    EXPECT_EQ(obs::counter_value("sim/assemble_relearn"), 0u);
}

// --- partial refactorization ----------------------------------------------

Triplets<double> random_system(size_t n, int extra_per_row, Rng& rng) {
    Triplets<double> t(n);
    for (size_t i = 0; i < n; ++i) t.add(i, i, 5.0 + rng.uniform(0, 1));
    for (size_t i = 0; i < n; ++i)
        for (int k = 0; k < extra_per_row; ++k)
            t.add(i, static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
                  rng.uniform(-1, 1));
    return t;
}

TEST_F(AssemblyTest, PartialRefactorMatchesFullRefactorBitwise) {
    Rng rng(42);
    for (int trial = 0; trial < 5; ++trial) {
        const size_t n = 30 + 10 * static_cast<size_t>(trial);
        auto t = random_system(n, 3, rng);
        const SparseCSC<double> a1(t);

        // Perturb the entries inside changed x changed in place: the
        // partial contract is "identical outside changed_cols x
        // changed_cols", which editing CSC values of a copy inside that
        // block guarantees structurally.
        const std::vector<int> changed = {1, static_cast<int>(n) / 2,
                                          static_cast<int>(n) - 2};
        std::vector<char> in_set(n, 0);
        for (int c : changed) in_set[static_cast<size_t>(c)] = 1;
        auto perturb = [&](double scale) {
            SparseCSC<double> a = a1;
            const auto& cp = a.col_ptr();
            const auto& ri = a.row_idx();
            for (int c : changed)
                for (int p = cp[c]; p < cp[c + 1]; ++p)
                    if (in_set[static_cast<size_t>(ri[static_cast<size_t>(p)])])
                        a.values_mut()[static_cast<size_t>(p)] *= 1.0 + scale * (c + 1);
            return a;
        };
        const SparseCSC<double> a2 = perturb(0.1);
        const SparseCSC<double> a3 = perturb(0.05);

        std::vector<double> b(n);
        for (auto& v : b) v = rng.uniform(-1, 1);
        // Natural order (closures here are not trailing blocks: the column
        // sweep runs) and the changed columns delayed to the end (the
        // closure is the trailing block: the cached refresh runs, and the
        // second refresh replays what the first one cached).
        for (const std::vector<int>* last : {static_cast<const std::vector<int>*>(nullptr),
                                             &changed}) {
            SparseLU<double> partial(a1, last);
            SparseLU<double> full(a1, last);
            for (const SparseCSC<double>* a : {&a2, &a3}) {
                const std::string when =
                    format("trial %d, %s, %s", trial, last ? "delayed" : "natural order",
                           a == &a2 ? "first refresh" : "second refresh");
                ASSERT_TRUE(partial.refactor_partial(*a, changed)) << when;
                ASSERT_TRUE(full.refactor(*a)) << when;
                const auto xp = partial.solve(b);
                const auto xf = full.solve(b);
                EXPECT_EQ(std::memcmp(xp.data(), xf.data(), n * sizeof(double)), 0) << when;
                const auto tp = partial.solve_transpose(b);
                const auto tf = full.solve_transpose(b);
                EXPECT_EQ(std::memcmp(tp.data(), tf.data(), n * sizeof(double)), 0) << when;
                EXPECT_EQ(partial.factor_stats().min_pivot, full.factor_stats().min_pivot)
                    << when;
                EXPECT_EQ(partial.factor_stats().max_pivot, full.factor_stats().max_pivot)
                    << when;
                EXPECT_EQ(partial.norm1(), full.norm1()) << when;
            }
        }
    }
}

TEST_F(AssemblyTest, EmptyChangedSetPartialRefactorKeepsFactors) {
    Rng rng(3);
    auto t = random_system(40, 3, rng);
    SparseCSC<double> a(t);
    SparseLU<double> lu(a);
    std::vector<double> b(40, 1.0);
    const auto x0 = lu.solve(b);
    ASSERT_TRUE(lu.refactor_partial(a, {}));
    const auto x1 = lu.solve(b);
    EXPECT_EQ(std::memcmp(x0.data(), x1.data(), b.size() * sizeof(double)), 0);
}

TEST_F(AssemblyTest, ReusableLuTakesPartialPathOnlyUnderMatchingKey) {
    obs::set_enabled(true);
    Rng rng(9);
    auto t = random_system(32, 3, rng);
    SparseCSC<double> a(t);
    std::vector<int> changed = {4, 20};

    ReusableLU<double> rlu;
    ReusableLU<double>::RefactorHint hint;
    hint.key[0] = 0x1111;
    hint.changed_cols = &changed;
    rlu.factor(a, hint); // first factor under this key: full, adopts the key
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 0u);

    rlu.factor(a, hint); // same key: partial closure refresh
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 1u);

    hint.key[0] = 0x2222; // key change: factors of a different system
    rlu.factor(a, hint);
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 1u);

    ReusableLU<double>::RefactorHint no_key; // zero key never arms partial
    rlu.factor(a, no_key);
    rlu.factor(a, no_key);
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 1u);
}

// --- transient engine integration -----------------------------------------

circuit::Netlist ladder_with_mosfet(int stages) {
    circuit::Netlist nl;
    const tech::Technology t = tech::generic180();
    const tech::MosModelCard nch = t.mos_model("nch");
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.9, 0.2, 2e8));
    nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                             circuit::Waveform::dc(1.8));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 100.0);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 2e-13);
    }
    nl.add<circuit::Resistor>("rd", nl.node("vdd"), nl.node("out"), 2e3);
    nl.add<circuit::Mosfet>("m0", nl.node("out"), nl.node(format("n%d", stages)),
                            circuit::kGround, circuit::kGround,
                            tech::generic180().mos_model("nch"),
                            circuit::MosGeometry{});
    nl.add<circuit::Capacitor>("cl", nl.node("out"), circuit::kGround, 1e-13);
    (void)nch;
    return nl;
}

TEST_F(AssemblyTest, DefaultEngineMatchesFrozenWaveformDigests) {
    // Golden waveforms of the transient engine, time axis and probes bit
    // for bit; they hold in Release, RelWithDebInfo and -O0 builds.  A
    // change that moves them must re-freeze them and say why.  The MOSFET
    // ladder: 200 steps of 20 ps.
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 4e-9;
    auto ladder = ladder_with_mosfet(40);
    EXPECT_EQ(sim::waveform_digest(sim::transient(ladder, {"out"}, opt)),
              0xea043a1a7cc214dcull);

    // The nominal VCO impact model over the first calibration capture's
    // quarter window, run with record_oscillator()'s options.
    auto vco = testcases::build_model(testcases::build_vco(),
                                      testcases::vco_flow_options());
    const rf::OscOptions osc = testcases::vco_osc_options();
    const auto res = sim::transient(
        vco.netlist, {osc.probe_p, osc.probe_n},
        sim::vco_capture_options(osc.settle / 4.0, osc.capture / 4.0));
    EXPECT_EQ(sim::waveform_digest(res), sim::kVcoQuarterWindowDigest);
}

TEST_F(AssemblyTest, IncrementalEngineMatchesFullRestampWithinTolerance) {
    // The textbook oracle restamps everything, factors afresh in the pure
    // min-degree order and starts each step from the last accepted state;
    // the engine orders the nonlinear columns last, refactors partially and
    // starts from the linear predictor.  The two are deliberately NOT
    // bitwise comparable, but both converge every step to the same Newton
    // tolerance, so the waveforms must agree well inside it.
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 4e-9;

    auto nl1 = ladder_with_mosfet(40);
    const auto incremental = sim::transient(nl1, {"out"}, opt);

    auto nl2 = ladder_with_mosfet(40);
    const auto full = sim::reference_transient(nl2, {"out"}, opt);

    ASSERT_EQ(incremental.time.size(), full.time.size());
    const auto& wi = incremental.wave("out");
    const auto& wf = full.wave("out");
    ASSERT_EQ(wi.size(), wf.size());
    for (size_t k = 0; k < wi.size(); ++k)
        EXPECT_NEAR(wi[k], wf[k], 1e-6) << "sample " << k;
}

TEST_F(AssemblyTest, VcoCaptureWithStepRetriesMatchesFrozenDigest) {
    // The quarter-window capture of DefaultEngineMatchesFrozenWaveformDigests
    // with forced step rejections: three in a row at the 2,000th converged
    // attempt (dt halves to dt/8, then regrows) and one more at the 4,500th.
    // New (dt, order) keys, full refactors and their cache rebuilds then
    // happen inside the pinned window.
    fault::arm(fault::parse_spec("tran.step.fail@2000x3"));
    fault::arm(fault::parse_spec("tran.step.fail@4500x1"));
    auto vco = testcases::build_model(testcases::build_vco(),
                                      testcases::vco_flow_options());
    const rf::OscOptions osc = testcases::vco_osc_options();
    const auto res = sim::transient(
        vco.netlist, {osc.probe_p, osc.probe_n},
        sim::vco_capture_options(osc.settle / 4.0, osc.capture / 4.0));
    EXPECT_EQ(res.step_retries, 4);
    EXPECT_EQ(sim::capture_digest(res), 0x1f065dbeaf081c33ull);
}

TEST_F(AssemblyTest, Fig7FullCaptureMatchesFrozenDigest) {
    // fig7's brute-force measurement: the nominal VCO with the 10 MHz,
    // 356 mV substrate tone of bench/scenarios.cpp run_fig7, settle plus
    // the full 1 us capture (112,000 steps of 10 ps).
    auto vco = testcases::build_model(testcases::build_vco(),
                                      testcases::vco_flow_options());
    vco.netlist.find_as<circuit::VSource>(testcases::VcoTestcase::kNoiseSource)
        ->set_waveform(circuit::Waveform::sin(0.0, 0.356, 10e6));
    const rf::OscOptions osc = testcases::vco_osc_options();
    const auto res = sim::transient(vco.netlist, {osc.probe_p, osc.probe_n},
                                    sim::vco_capture_options(osc.settle, 1.0e-6));
    EXPECT_EQ(res.time.size(), 100001u);
    EXPECT_EQ(sim::capture_digest(res), 0x16a85a455c50f2c6ull);
}

/// Solves with `lu` and with a fresh factorization of `a` that delays the
/// same columns, and requires the two to agree bit for bit.
void expect_matches_fresh(const SparseLU<double>& lu, const SparseCSC<double>& a,
                          const std::vector<int>& delayed, const char* when) {
    const SparseLU<double> fresh(a, &delayed);
    std::vector<double> b(a.size());
    for (size_t i = 0; i < b.size(); ++i) b[i] = std::sin(1.0 + static_cast<double>(i));
    const auto x = lu.solve(b);
    const auto xf = fresh.solve(b);
    EXPECT_EQ(std::memcmp(x.data(), xf.data(), x.size() * sizeof(double)), 0)
        << "solve diverged: " << when;
    const auto xt = lu.solve_transpose(b);
    const auto xtf = fresh.solve_transpose(b);
    EXPECT_EQ(std::memcmp(xt.data(), xtf.data(), xt.size() * sizeof(double)), 0)
        << "transpose solve diverged: " << when;
    EXPECT_EQ(lu.factor_stats().min_pivot, fresh.factor_stats().min_pivot) << when;
    EXPECT_EQ(lu.factor_stats().max_pivot, fresh.factor_stats().max_pivot) << when;
    EXPECT_EQ(lu.norm1(), fresh.norm1()) << when;
    EXPECT_EQ(lu.rcond_estimate(), fresh.rcond_estimate()) << when;
}

TEST_F(AssemblyTest, VcoJacobianPartialRefreshMatchesFreshFactorization) {
    // The VCO's transient Jacobian as the engine factors it: nonlinear
    // columns delayed to the end, then refreshed by refactor_partial while
    // only the nonlinear devices' entries move (Newton iterates at one dt),
    // with a dt change and a full numeric refactor in between.
    auto vco = testcases::build_model(testcases::build_vco(),
                                      testcases::vco_flow_options());
    auto& nl = vco.netlist;
    nl.finalize();
    const size_t n = nl.unknown_count();
    std::vector<double> x = sim::operating_point(nl);
    for (const auto& d : nl.devices()) d->init_tran(x);

    circuit::RealStamper s(n);
    s.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, s);
    circuit::TranParams tp;
    tp.dt = 10e-12;
    tp.order = 2;
    tp.time = tp.dt;
    asmb.begin_attempt(x, tp);
    asmb.assemble(x, tp);
    const std::vector<int> cols = asmb.nonlinear_cols();
    ASSERT_FALSE(cols.empty());
    std::vector<char> in_set(n, 0);
    for (int c : cols) in_set[static_cast<size_t>(c)] = 1;

    SparseLU<double> lu(s.csc(), &cols);
    expect_matches_fresh(lu, s.csc(), cols, "initial factorization");

    Rng rng(24);
    auto newton_iterate = [&](const char* when) {
        const SparseCSC<double> before = s.csc();
        for (size_t i = 0; i < n; ++i) x[i] += 0.02 * rng.uniform(-1, 1);
        asmb.assemble(x, tp);
        const SparseCSC<double>& a = s.csc();
        // The refresh contract: entries outside nonlinear x nonlinear keep
        // their values while the (dt, order) key holds.
        const auto& cp = a.col_ptr();
        const auto& ri = a.row_idx();
        for (size_t j = 0; j < n; ++j)
            for (int p = cp[j]; p < cp[j + 1]; ++p) {
                const auto r = static_cast<size_t>(ri[static_cast<size_t>(p)]);
                if (in_set[j] && in_set[r]) continue;
                ASSERT_EQ(a.values()[static_cast<size_t>(p)],
                          before.values()[static_cast<size_t>(p)])
                    << when << ": entry (" << r << "," << j << ") moved";
            }
        ASSERT_TRUE(lu.refactor_partial(a, cols)) << when;
        expect_matches_fresh(lu, a, cols, when);
    };
    newton_iterate("dt 10 ps, iteration 1");
    newton_iterate("dt 10 ps, iteration 2");

    // Halve dt: every companion entry moves, so the factors take a full
    // numeric refactor before the nonlinear block is refreshed again.
    tp.dt = 5e-12;
    asmb.begin_attempt(x, tp);
    asmb.assemble(x, tp);
    ASSERT_TRUE(lu.refactor(s.csc()));
    expect_matches_fresh(lu, s.csc(), cols, "dt 5 ps, full refactor");
    newton_iterate("dt 5 ps, iteration 1");
    newton_iterate("dt 5 ps, iteration 2");
    newton_iterate("dt 5 ps, iteration 3");

    // Single changed indices outside the nonlinear set, each perturbed at
    // its diagonal only: most closures are then not a trailing block and
    // run the column sweep.  Each is refreshed back before the next.
    const SparseCSC<double> base = s.csc();
    for (size_t j = 0; j < n; ++j) {
        if (in_set[j]) continue;
        const std::vector<int> one = {static_cast<int>(j)};
        SparseCSC<double> a = base;
        const auto& cp = a.col_ptr();
        const auto& ri = a.row_idx();
        for (int p = cp[j]; p < cp[j + 1]; ++p)
            if (static_cast<size_t>(ri[static_cast<size_t>(p)]) == j)
                a.values_mut()[static_cast<size_t>(p)] *= 1.0 + 1e-6;
        const std::string when = format("changed index %zu", j);
        ASSERT_TRUE(lu.refactor_partial(a, one)) << when;
        expect_matches_fresh(lu, a, cols, when.c_str());
        ASSERT_TRUE(lu.refactor_partial(base, one)) << when;
    }
    expect_matches_fresh(lu, base, cols, "after the single-index refreshes");
    newton_iterate("after the single-index refreshes");
}

TEST_F(AssemblyTest, DefaultRunDoesExactlyOneFullAssembly) {
    obs::set_enabled(true);
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 4e-9;
    auto nl = ladder_with_mosfet(40);
    (void)sim::transient(nl, {"out"}, opt);

    EXPECT_EQ(obs::counter_value("sim/assemble_full"), 1u);
    EXPECT_EQ(obs::counter_value("sim/assemble_relearn"), 0u);
    EXPECT_GT(obs::counter_value("sim/assemble_incremental"), 0u);
    EXPECT_GT(obs::counter_value("sim/assemble_cache_hits"), 0u);
    EXPECT_GT(obs::counter_value("numeric/lu_partial_refactor"), 0u);
}

} // namespace
