// Solver hot-path and parallel-sweep engine suite.
//
// The contracts under test are bitwise, not approximate:
//   * ReusableLU's refactor path must reproduce a fresh factorization of the
//     same matrix exactly (same pivot sequence -> same update order -> same
//     floating-point result),
//   * the Stamper's compiled scatter must reproduce the triplet-built CSC,
//   * every sweep must produce byte-identical results, counters and
//     time-series for any thread count.
// Runs as its own binary (ctest label `perf`, also the TSan CI target)
// because it arms global fault windows and asserts on the global registry.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <complex>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stamp.hpp"
#include "dsp/fft.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/vecops.hpp"
#include "obs/parallel.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rf/spur.hpp"
#include "sim/ac.hpp"
#include "sim/mna.hpp"
#include "sim/op.hpp"
#include "sim/transient.hpp"
#include "tech/generic180.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

using namespace snim;

namespace {

class ParallelTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
        util::set_default_thread_count(1);
        obs::reset();
        obs::set_enabled(false);
    }
    void TearDown() override {
        fault::clear();
        util::set_default_thread_count(1);
        obs::reset();
        obs::set_enabled(false);
    }
};

/// Diagonally dominant sparse test matrix with a fixed pattern; `salt`
/// changes only the values, never the pattern.
SparseCSC<double> test_matrix(size_t n, double salt) {
    Rng rng(42);
    Triplets<double> t(n);
    for (size_t i = 0; i < n; ++i) t.add(i, i, 10.0 + rng.uniform(0, 1) + salt);
    for (size_t i = 0; i < n; ++i)
        for (int k = 0; k < 3; ++k)
            t.add(i, static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
                  rng.uniform(-1, 1) * (1.0 + salt));
    return SparseCSC<double>(t);
}

/// RC ladder with an AC-excited source, big enough for a multi-chunk sweep.
circuit::Netlist ac_ladder(int stages) {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::dc(0.0), circuit::AcSpec{1.0, 0.0});
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 1e3);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-12);
    }
    return nl;
}

circuit::Netlist sine_rc_netlist() {
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("in"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 50e6));
    nl.add<circuit::Resistor>("r1", nl.node("in"), nl.node("out"), 1e3);
    nl.add<circuit::Capacitor>("c1", nl.node("out"), circuit::kGround, 1e-12);
    return nl;
}

// --- thread pool ----------------------------------------------------------

TEST_F(ParallelTest, ThreadPoolRunsEveryIndexOnce) {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4);
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    pool.parallel_for_indexed(100, [&](size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, ThreadPoolCountBelowThreads) {
    util::ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    for (auto& h : hits) h = 0;
    pool.parallel_for_indexed(3, [&](size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    pool.parallel_for_indexed(0, [&](size_t) { FAIL(); });
}

TEST_F(ParallelTest, ThreadPoolRethrowsLowestIndexException) {
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    for (auto& h : hits) h = 0;
    try {
        pool.parallel_for_indexed(64, [&](size_t i) {
            ++hits[i];
            if (i == 3 || i == 7) raise("boom at %zu", i);
        });
        FAIL() << "expected an exception";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("boom at 3"), std::string::npos)
            << "lowest throwing index must win, got: " << e.what();
    }
    // Every index still ran despite the failures (no abandoned work).
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, DefaultThreadCountIsClamped) {
    util::set_default_thread_count(500);
    EXPECT_EQ(util::default_thread_count(), 256);
    util::set_default_thread_count(-3);
    EXPECT_EQ(util::default_thread_count(), 1);
    util::set_default_thread_count(4);
    EXPECT_EQ(util::ThreadPool(0).thread_count(), 4);
    util::set_default_thread_count(1);
}

// --- reusable LU ----------------------------------------------------------

TEST_F(ParallelTest, RefactorIsBitIdenticalToFreshFactorization) {
    const size_t n = 60;
    const auto a1 = test_matrix(n, 0.0);
    const auto a2 = test_matrix(n, 0.25); // same pattern, different values

    SparseLU<double> fresh2(a2);
    SparseLU<double> refd(a1);
    ASSERT_TRUE(refd.refactor(a2));

    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) b[i] = std::sin(static_cast<double>(i));
    const auto x_fresh = fresh2.solve(b);
    const auto x_refd = refd.solve(b);
    ASSERT_EQ(x_fresh.size(), x_refd.size());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(x_fresh[i], x_refd[i]) << "solution differs at " << i;
    EXPECT_EQ(fresh2.factor_stats().min_pivot, refd.factor_stats().min_pivot);

    const auto xt_fresh = fresh2.solve_transpose(b);
    const auto xt_refd = refd.solve_transpose(b);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(xt_fresh[i], xt_refd[i]);
}

TEST_F(ParallelTest, RefactorReturnsFalseOnExactZeroPivot) {
    Triplets<double> t(2);
    t.add(0, 0, 2.0);
    t.add(1, 0, 1.0);
    t.add(0, 1, 1.0);
    t.add(1, 1, 2.0);
    SparseLU<double> lu{SparseCSC<double>(t)};

    Triplets<double> t2(2);
    t2.add(0, 0, 1.0);
    t2.add(1, 0, 1.0);
    t2.add(0, 1, 1.0);
    t2.add(1, 1, 1.0); // second pivot: 1 - 1*1 = 0 exactly
    EXPECT_FALSE(lu.refactor(SparseCSC<double>(t2)));
}

TEST_F(ParallelTest, ReusableLuRecoversFromZeroPivotRefactor) {
    Triplets<double> t(2);
    t.add(0, 0, 2.0);
    t.add(1, 0, 1.0);
    t.add(0, 1, 1.0);
    t.add(1, 1, 2.0);
    ReusableLU<double> rlu;
    rlu.factor(SparseCSC<double>(t));

    // Singular on the reuse path -> the guard falls back to a full
    // factorization, which raises like a fresh SparseLU would.
    Triplets<double> t2(2);
    t2.add(0, 0, 1.0);
    t2.add(1, 0, 1.0);
    t2.add(0, 1, 1.0);
    t2.add(1, 1, 1.0);
    EXPECT_THROW(rlu.factor(SparseCSC<double>(t2)), Error);

    // A later well-conditioned matrix factors cleanly again.
    Triplets<double> t3(2);
    t3.add(0, 0, 3.0);
    t3.add(1, 0, 1.0);
    t3.add(0, 1, 1.0);
    t3.add(1, 1, 3.0);
    rlu.factor(SparseCSC<double>(t3));
    const auto x = rlu.solve({1.0, 1.0});
    EXPECT_NEAR(x[0], 0.25, 1e-12);
    EXPECT_NEAR(x[1], 0.25, 1e-12);
}

TEST_F(ParallelTest, ReusableLuCountsReuseAndGuardFallbacks) {
    obs::set_enabled(true);
    const size_t n = 40;
    ReusableLU<double> rlu;
    rlu.factor(test_matrix(n, 0.0)); // full: no reuse counters
    EXPECT_EQ(obs::counter_value("numeric/lu_refactor"), 0u);

    rlu.factor(test_matrix(n, 0.5)); // same pattern -> kept refactor
    EXPECT_EQ(obs::counter_value("numeric/lu_refactor"), 1u);
    EXPECT_EQ(obs::counter_value("numeric/lu_symbolic_reuse"), 1u);
    EXPECT_EQ(obs::counter_value("numeric/lu_repivot_fallbacks"), 0u);

    // Same pattern, values scaled down by 1e6: the refactored min pivot
    // drops far below repivot_tol * reference -> guarded full re-pivot.
    auto tiny = test_matrix(n, 0.0);
    for (auto& v : tiny.values_mut()) v *= 1e-6;
    rlu.factor(tiny);
    EXPECT_EQ(obs::counter_value("numeric/lu_refactor"), 2u);
    EXPECT_EQ(obs::counter_value("numeric/lu_symbolic_reuse"), 1u);
    EXPECT_EQ(obs::counter_value("numeric/lu_repivot_fallbacks"), 1u);

    // The fallback refreshed the min-pivot reference: an equally tiny
    // matrix now reuses instead of thrashing through full factorizations.
    auto tiny2 = test_matrix(n, 0.5);
    for (auto& v : tiny2.values_mut()) v *= 1e-6;
    rlu.factor(tiny2);
    EXPECT_EQ(obs::counter_value("numeric/lu_symbolic_reuse"), 2u);
    EXPECT_EQ(obs::counter_value("numeric/lu_repivot_fallbacks"), 1u);

    // A different sparsity pattern silently takes the full path.
    rlu.factor(test_matrix(n + 1, 0.0));
    EXPECT_EQ(obs::counter_value("numeric/lu_refactor"), 3u);
}

// --- compiled stamp assembly ----------------------------------------------

TEST_F(ParallelTest, CompiledStamperMatchesTripletAssemblyBitwise) {
    auto stamp_pass = [](circuit::RealStamper& s, double g1, double g2) {
        s.admittance(0, 1, g1);
        s.admittance(1, 2, g2);
        s.entry(0, 0, 0.0); // structural zero: nonzero on later passes
        s.entry(2, 2, g1 * g2);
        s.entry(0, 0, g2); // duplicate of the (0,0) slots above
        s.rhs_current(0, 1.0);
    };

    circuit::RealStamper compiled(3);
    compiled.enable_compiled_assembly();
    circuit::RealStamper reference(3);

    const double cases[][2] = {{1.0, 2.0}, {0.5, -3.0}, {7.0, 0.0}};
    for (const auto& c : cases) {
        compiled.clear();
        stamp_pass(compiled, c[0], c[1]);
        const auto& fast = compiled.csc();

        reference.clear();
        stamp_pass(reference, c[0], c[1]);
        reference.matrix().set_keep_zeros(true);
        const SparseCSC<double> slow(reference.matrix());

        ASSERT_EQ(fast.nnz(), slow.nnz());
        EXPECT_EQ(fast.col_ptr(), slow.col_ptr());
        EXPECT_EQ(fast.row_idx(), slow.row_idx());
        for (size_t k = 0; k < fast.nnz(); ++k)
            EXPECT_EQ(fast.values()[k], slow.values()[k]) << "slot " << k;
        EXPECT_EQ(compiled.rhs(), reference.rhs());
    }
    EXPECT_TRUE(compiled.compiled_mode());
}

TEST_F(ParallelTest, CompiledStamperDemotesOnSequenceChangeAndRelearns) {
    obs::set_enabled(true);
    circuit::RealStamper s(3);
    s.enable_compiled_assembly();
    s.admittance(0, 1, 1.0);
    (void)s.csc(); // learn

    // A deviating pass: extra stamp not in the learned sequence.
    s.clear();
    s.admittance(0, 1, 2.0);
    s.entry(2, 2, 5.0);
    const auto& a = s.csc(); // demoted, rebuilt from triplets, relearned
    EXPECT_EQ(a.to_dense()(2, 2), 5.0);
    EXPECT_EQ(a.to_dense()(0, 0), 2.0);
    EXPECT_EQ(obs::counter_value("circuit/stamp_map_fallbacks"), 1u);

    // The relearned map compiles the NEW sequence.
    s.clear();
    s.admittance(0, 1, 3.0);
    s.entry(2, 2, 7.0);
    const auto& b = s.csc();
    EXPECT_TRUE(s.compiled_mode());
    EXPECT_EQ(b.to_dense()(2, 2), 7.0);
    EXPECT_EQ(b.to_dense()(0, 0), 3.0);
}

// --- transient engine -----------------------------------------------------

TEST_F(ParallelTest, TransientReuseMatchesForcedFreshFactorizationBitwise) {
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 50e-9;

    auto nl1 = sine_rc_netlist();
    const auto reuse = sim::transient(nl1, {"out"}, opt);

    // A repivot window left open forever turns every reuse opportunity into
    // a fresh full factorization.
    fault::arm(fault::parse_spec("numeric.lu.repivot@1x-1"));
    auto nl2 = sine_rc_netlist();
    const auto fresh = sim::transient(nl2, {"out"}, opt);
    EXPECT_GT(fault::trips("numeric.lu.repivot"), 0);

    ASSERT_EQ(reuse.time.size(), fresh.time.size());
    ASSERT_EQ(reuse.wave("out").size(), fresh.wave("out").size());
    for (size_t k = 0; k < reuse.wave("out").size(); ++k)
        EXPECT_EQ(reuse.wave("out")[k], fresh.wave("out")[k]) << "sample " << k;
}

TEST_F(ParallelTest, ForcedRepivotFallsBackWithoutChangingTheWaveform) {
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 50e-9;

    auto nl1 = sine_rc_netlist();
    const auto clean = sim::transient(nl1, {"out"}, opt);

    obs::set_enabled(true);
    fault::arm({"numeric.lu.repivot", 5, 3}); // force 3 full re-pivots
    auto nl2 = sine_rc_netlist();
    const auto faulted = sim::transient(nl2, {"out"}, opt);
    EXPECT_EQ(fault::trips("numeric.lu.repivot"), 3);
    EXPECT_EQ(obs::counter_value("numeric/lu_repivot_fallbacks"), 3u);
    EXPECT_GT(obs::counter_value("numeric/lu_symbolic_reuse"), 0u);

    // A forced full factorization picks the same pivots the reference run's
    // refactor reproduces, so the waveform must not move by a single bit.
    ASSERT_EQ(clean.wave("out").size(), faulted.wave("out").size());
    for (size_t k = 0; k < clean.wave("out").size(); ++k)
        EXPECT_EQ(clean.wave("out")[k], faulted.wave("out")[k]) << "sample " << k;
}

TEST_F(ParallelTest, IncrementalTransientIsThreadCountInvariant) {
    // The transient engine (assembler cache, partial refactors, predictor)
    // is serial per run, but it must neither read nor leak any thread-pool
    // state: waveform bytes AND the assembly / factorization counters have
    // to match for any thread count.
    sim::TranOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 50e-9;

    std::vector<double> ref_wave;
    uint64_t ref_incr = 0, ref_partial = 0, ref_hits = 0;
    for (const int threads : {1, 4}) {
        util::set_default_thread_count(threads);
        obs::reset();
        obs::set_enabled(true);
        auto nl = sine_rc_netlist();
        const auto res = sim::transient(nl, {"out"}, opt);
        const uint64_t incr = obs::counter_value("sim/assemble_incremental");
        const uint64_t partial = obs::counter_value("numeric/lu_partial_refactor");
        const uint64_t hits = obs::counter_value("sim/assemble_cache_hits");
        EXPECT_EQ(obs::counter_value("sim/assemble_full"), 1u);
        EXPECT_GT(incr, 0u);
        if (threads == 1) {
            ref_wave = res.wave("out");
            ref_incr = incr;
            ref_partial = partial;
            ref_hits = hits;
            continue;
        }
        ASSERT_EQ(ref_wave.size(), res.wave("out").size());
        EXPECT_EQ(0, std::memcmp(ref_wave.data(), res.wave("out").data(),
                                 ref_wave.size() * sizeof(double)));
        EXPECT_EQ(ref_incr, incr);
        EXPECT_EQ(ref_partial, partial);
        EXPECT_EQ(ref_hits, hits);
    }
}

// --- AC sweep determinism -------------------------------------------------

struct AcRun {
    sim::AcResult res;
    std::vector<double> ts_min_pivot;
    std::vector<double> ts_fill;
    uint64_t reuse = 0, refactor = 0, fallbacks = 0;
};

AcRun run_ac(int threads) {
    auto nl = ac_ladder(30);
    nl.finalize();
    const std::vector<double> xop(nl.unknown_count(), 0.0);
    const auto freqs = linspace(1e6, 1e9, 64);
    sim::AcOptions opt;
    opt.threads = threads;
    obs::reset();
    obs::set_enabled(true);
    AcRun out;
    out.res = sim::ac_sweep(nl, freqs, xop, opt);
    if (auto ts = obs::ts_get("sim/ac/lu_min_pivot")) out.ts_min_pivot = ts->value;
    if (auto ts = obs::ts_get("sim/ac/lu_fill_growth")) out.ts_fill = ts->value;
    out.reuse = obs::counter_value("numeric/lu_symbolic_reuse");
    out.refactor = obs::counter_value("numeric/lu_refactor");
    out.fallbacks = obs::counter_value("numeric/lu_repivot_fallbacks");
    obs::set_enabled(false);
    return out;
}

void expect_ac_bitwise_equal(const AcRun& a, const AcRun& b) {
    ASSERT_EQ(a.res.x.size(), b.res.x.size());
    for (size_t k = 0; k < a.res.x.size(); ++k) {
        ASSERT_EQ(a.res.x[k].size(), b.res.x[k].size()) << "point " << k;
        for (size_t i = 0; i < a.res.x[k].size(); ++i)
            EXPECT_EQ(a.res.x[k][i], b.res.x[k][i]) << "point " << k << " node " << i;
    }
    EXPECT_EQ(a.ts_min_pivot, b.ts_min_pivot);
    EXPECT_EQ(a.ts_fill, b.ts_fill);
    EXPECT_EQ(a.reuse, b.reuse);
    EXPECT_EQ(a.refactor, b.refactor);
    EXPECT_EQ(a.fallbacks, b.fallbacks);
}

TEST_F(ParallelTest, AcSweepIsBitIdenticalAcrossThreadCounts) {
    const auto serial = run_ac(1);
    const auto par4 = run_ac(4);
    const auto par3 = run_ac(3); // uneven chunking
    expect_ac_bitwise_equal(serial, par4);
    expect_ac_bitwise_equal(serial, par3);
    EXPECT_EQ(serial.refactor, 63u); // every point past the reference
    EXPECT_EQ(serial.reuse + serial.fallbacks, serial.refactor);
}

TEST_F(ParallelTest, AcSweepReuseMatchesFreshPerPoint) {
    const auto reused = run_ac(4);
    // Fresh side: every point assembled on its own stamper (keeping
    // structural zeros, like the sweep's) and solved by its own full
    // factorization.
    auto nl = ac_ladder(30);
    nl.finalize();
    const size_t n = nl.unknown_count();
    const std::vector<double> xop(n, 0.0);
    const auto freqs = linspace(1e6, 1e9, 64);
    ASSERT_EQ(reused.res.x.size(), freqs.size());
    for (size_t k = 0; k < freqs.size(); ++k) {
        circuit::ComplexStamper s(n);
        s.enable_compiled_assembly();
        sim::assemble_ac(nl, s, xop, units::kTwoPi * freqs[k], sim::AcOptions{}.gmin);
        const auto fresh = SparseLU<std::complex<double>>(s.csc()).solve(s.rhs());
        ASSERT_EQ(reused.res.x[k].size(), fresh.size());
        for (size_t i = 0; i < fresh.size(); ++i)
            EXPECT_EQ(reused.res.x[k][i], fresh[i]) << "point " << k << " node " << i;
    }
}

// --- obs parallel merge ---------------------------------------------------

TEST_F(ParallelTest, ParallelTasksMergesMetricsInIndexOrder) {
    // 16 tasks x 600 samples overflow the 4,096-sample reservoir, so the
    // quantiles depend on the order samples reach the histogram.
    const obs::Value val("p/val");
    const obs::Phase phase("p/phase");
    auto body = [&](size_t i) {
        obs::ScopedTimer timer(phase);
        obs::count("p/tasks");
        obs::count(format("p/task_%zu", i));
        for (size_t j = 0; j < 600; ++j)
            obs::record_value(val, std::sin(static_cast<double>(i * 600 + j)));
        obs::record_value("p/named_val", static_cast<double>(i));
        obs::ts_append("p/ts", static_cast<double>(i), std::sqrt(static_cast<double>(i)),
                       "1");
    };

    obs::set_enabled(true);
    for (size_t i = 0; i < 16; ++i) body(i); // serial reference
    const auto ref_ts = obs::ts_get("p/ts");
    const auto ref_counters = obs::counters_snapshot();
    const auto ref_val = obs::value_stats("p/val");
    ASSERT_TRUE(ref_ts.has_value());
    ASSERT_TRUE(ref_val.has_value());
    ASSERT_EQ(ref_val->count, 9600u);

    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        obs::reset();
        obs::parallel_tasks(threads, 16, body);
        const auto par_ts = obs::ts_get("p/ts");
        ASSERT_TRUE(par_ts.has_value());
        EXPECT_EQ(par_ts->value, ref_ts->value);
        EXPECT_EQ(par_ts->time, ref_ts->time);
        EXPECT_EQ(obs::counters_snapshot(), ref_counters);
        const auto vs = obs::value_stats("p/val");
        ASSERT_TRUE(vs.has_value());
        EXPECT_EQ(vs->count, ref_val->count);
        EXPECT_EQ(vs->sum, ref_val->sum);
        EXPECT_EQ(vs->p50, ref_val->p50);
        EXPECT_EQ(vs->p95, ref_val->p95);
        const auto named = obs::value_stats("p/named_val");
        ASSERT_TRUE(named.has_value());
        EXPECT_EQ(named->count, 16u);
        EXPECT_EQ(obs::phase_calls("p/phase"), 16u);
    }
}
TEST_F(ParallelTest, OpResidualChannelIsThreadCountInvariant) {
    // sim/op/residual numbers its samples by Newton iteration, running on
    // over the whole process.  Operating points solved inside
    // parallel_tasks must get the serial run's numbering, task index
    // order, for any thread count.
    const tech::MosModelCard nch = tech::generic180().mos_model("nch");
    auto body = [&](size_t i) {
        for (int k = 0; k < 8; ++k) {
            circuit::Netlist nl;
            nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                                     circuit::Waveform::dc(1.8));
            nl.add<circuit::VSource>(
                "vg", nl.node("g"), circuit::kGround,
                circuit::Waveform::dc(0.6 + 0.05 * static_cast<double>(i) +
                                      0.01 * static_cast<double>(k)));
            nl.add<circuit::Resistor>("rd", nl.node("vdd"), nl.node("d"), 2e3);
            nl.add<circuit::Mosfet>("m1", nl.node("d"), nl.node("g"), circuit::kGround,
                                    circuit::kGround, nch, circuit::MosGeometry{});
            (void)sim::operating_point(nl);
        }
    };

    obs::set_enabled(true);
    std::vector<double> ref_offsets, ref_values;
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        obs::reset();
        obs::parallel_tasks(threads, 12, body);
        const auto ts = obs::ts_get("sim/op/residual");
        ASSERT_TRUE(ts.has_value());
        ASSERT_EQ(ts->stride, 1u);
        // The abscissa runs on across obs::reset(), so runs are compared by
        // their offsets from the first sample; serially they count 0, 1, ...
        std::vector<double> offsets;
        for (const double t : ts->time) offsets.push_back(t - ts->time.front());
        if (threads == 1) {
            for (size_t k = 0; k < offsets.size(); ++k)
                ASSERT_EQ(offsets[k], static_cast<double>(k));
            ref_offsets = offsets;
            ref_values = ts->value;
            continue;
        }
        EXPECT_EQ(offsets, ref_offsets);
        EXPECT_EQ(0, std::memcmp(ts->value.data(), ref_values.data(),
                                 ref_values.size() * sizeof(double)));
        EXPECT_EQ(ts->value.size(), ref_values.size());
    }
}

// --- FFT twiddle cache ----------------------------------------------------

TEST_F(ParallelTest, FftMatchesDirectDftAcrossInterleavedSizes) {
    auto direct_dft = [](const std::vector<std::complex<double>>& in) {
        const size_t n = in.size();
        std::vector<std::complex<double>> out(n);
        for (size_t k = 0; k < n; ++k)
            for (size_t j = 0; j < n; ++j)
                out[k] += in[j] * std::polar(1.0, -units::kTwoPi *
                                                      static_cast<double>(k * j) /
                                                      static_cast<double>(n));
        return out;
    };

    Rng rng(7);
    // Interleave sizes so cached stage tables from one size serve the next.
    std::vector<std::complex<double>> first16;
    for (size_t n : {16u, 64u, 16u, 256u, 16u}) {
        std::vector<std::complex<double>> a(n);
        if (n == 16 && !first16.empty()) {
            a = first16; // same input -> cached twiddles must reproduce bits
        } else {
            for (auto& v : a) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
        }
        auto spec = a;
        dsp::fft(spec);
        const auto ref = direct_dft(a);
        for (size_t k = 0; k < n; ++k)
            EXPECT_NEAR(std::abs(spec[k] - ref[k]), 0.0,
                        1e-9 * static_cast<double>(n));

        auto back = spec;
        dsp::ifft(back);
        for (size_t k = 0; k < n; ++k) EXPECT_NEAR(std::abs(back[k] - a[k]), 0.0, 1e-12);

        if (n == 16 && first16.empty()) first16 = a;
    }
}

TEST_F(ParallelTest, FftIsBitStableAcrossRepeatedSizes) {
    Rng rng(9);
    std::vector<std::complex<double>> a(32);
    for (auto& v : a) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    auto s1 = a;
    dsp::fft(s1);
    // Populate other cache entries in between.
    std::vector<std::complex<double>> mid(128, {1.0, 0.0});
    dsp::fft(mid);
    auto s2 = a;
    dsp::fft(s2);
    for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(s1[k], s2[k]);
}

// --- spur measurement thread invariance -----------------------------------

TEST_F(ParallelTest, SpectralSpurIsThreadCountInvariant) {
    rf::OscCapture cap;
    cap.fs = 64e9;
    cap.fc = 3e9;
    cap.amplitude = 1.0;
    cap.mean = 0.9;
    const double fn = 10e6;
    const size_t samples = 1 << 16;
    cap.wave.resize(samples);
    for (size_t i = 0; i < samples; ++i) {
        const double t = static_cast<double>(i) / cap.fs;
        cap.wave[i] = cap.mean +
                      (1.0 + 0.01 * std::cos(units::kTwoPi * fn * t)) *
                          std::cos(units::kTwoPi * cap.fc * t +
                                   0.02 * std::sin(units::kTwoPi * fn * t));
    }

    util::set_default_thread_count(1);
    const auto serial = rf::measure_spur_spectral(cap, fn);
    util::set_default_thread_count(4);
    const auto parallel = rf::measure_spur_spectral(cap, fn);
    util::set_default_thread_count(1);

    EXPECT_EQ(serial.carrier_amp, parallel.carrier_amp);
    EXPECT_EQ(serial.left_amp, parallel.left_amp);
    EXPECT_EQ(serial.right_amp, parallel.right_amp);
    EXPECT_EQ(serial.freq_dev, parallel.freq_dev);
}

} // namespace
