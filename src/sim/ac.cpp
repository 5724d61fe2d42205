#include "sim/ac.hpp"

#include <algorithm>

#include "numeric/certify.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/parallel.hpp"
#include "obs/progress.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/mna.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace snim::sim {

namespace {

/// Pivot-health guard for the sweep's shared symbolic analysis: a refactor
/// whose smallest pivot drops below this fraction of the reference
/// factorization's is discarded in favour of a fresh full factorization.
constexpr double kRepivotTol = 1e-3;

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kRunPhase("sim/ac");
const obs::Counter kPoints("sim/ac/points");
const obs::Counter kRefactors("numeric/lu_refactor");
const obs::Counter kSymbolicReuse("numeric/lu_symbolic_reuse");
const obs::Counter kRepivotFallbacks("numeric/lu_repivot_fallbacks");
const obs::Channel kMinPivotChannel("sim/ac/lu_min_pivot", "1");
const obs::Channel kFillGrowthChannel("sim/ac/lu_fill_growth", "x");
const obs::CertSite kCertSite("ac");

} // namespace

std::complex<double> AcResult::at(size_t k, circuit::NodeId node) const {
    SNIM_ASSERT(k < x.size(), "sweep index %zu out of %zu", k, x.size());
    if (node < 0) return {0.0, 0.0};
    SNIM_ASSERT(static_cast<size_t>(node) < x[k].size(), "bad node id %d", node);
    return x[k][static_cast<size_t>(node)];
}

AcResult ac_sweep(circuit::Netlist& netlist, const std::vector<double>& freqs,
                  const std::vector<double>& xop, const AcOptions& opt) {
    obs::validate_certify_options(opt.certify, "AcOptions");
    obs::ScopedTimer obs_run(kRunPhase, obs::Timing::WhenEnabled, obs::Rss::Track);
    obs::count(kPoints, freqs.size());
    netlist.finalize();
    const size_t n = netlist.unknown_count();
    SNIM_ASSERT(xop.size() == n, "operating point size mismatch");
    for (double f : freqs) SNIM_ASSERT(f >= 0, "negative frequency");

    AcResult out;
    out.freq = freqs;
    out.x.assign(freqs.size(), {});
    if (freqs.empty()) return out;

    // Serial prologue: fully factor the first point.  Its symbolic analysis
    // (pattern + pivot sequence) and min-pivot reference are shared by every
    // worker, which makes the per-point repivot decision a pure function of
    // the point's matrix values — independent of thread count and chunking.
    obs::ProgressScope progress("sim/ac", freqs.size());
    circuit::ComplexStamper s0(n);
    s0.enable_compiled_assembly();
    assemble_ac(netlist, s0, xop, units::kTwoPi * freqs[0], opt.gmin, opt.exclude);
    SparseLU<std::complex<double>> ref_lu(s0.csc());
    const double ref_min_pivot = ref_lu.factor_stats().min_pivot;
    out.x[0] = ref_lu.solve(s0.rhs());
    // The serial reference point is the sweep's only certificate site where
    // fault queries are allowed (fault order is part of the determinism
    // contract; worker scheduling is not).
    const bool certify = obs::enabled();
    if (certify) {
        const obs::SolveCertificate cert = certify_solve(
            ref_lu, s0.csc(), out.x[0], s0.rhs(), opt.certify);
        obs::record_certificate(kCertSite, cert, opt.certify);
    }
    progress.advance();
    if (obs::enabled()) {
        // Per-point pivot health over the sweep: a dip flags the
        // frequency where the MNA system loses conditioning.
        obs::ts_append(kMinPivotChannel, freqs[0], ref_min_pivot);
        obs::ts_append(kFillGrowthChannel, freqs[0], ref_lu.factor_stats().fill_growth);
    }

    const size_t rest = freqs.size() - 1;
    if (rest == 0) return out;

    // One task per contiguous chunk of the remaining frequencies, so each
    // worker pays for its copy of the reference factorization once.  Chunk
    // boundaries depend on the thread count; per-point results and the
    // (index-order merged) obs sequence do not.
    util::ThreadPool pool(opt.threads);
    const size_t chunks = std::min<size_t>(pool.thread_count(), rest);
    obs::parallel_tasks(opt.threads, chunks, [&](size_t c) {
        const size_t lo = 1 + c * rest / chunks;
        const size_t hi = 1 + (c + 1) * rest / chunks;
        circuit::ComplexStamper s(n);
        s.enable_compiled_assembly();
        SparseLU<std::complex<double>> lu = ref_lu;
        for (size_t i = lo; i < hi; ++i) {
            s.clear();
            assemble_ac(netlist, s, xop, units::kTwoPi * freqs[i], opt.gmin,
                        opt.exclude);
            const auto& a = s.csc();
            double min_pivot = 0.0;
            double fill_growth = 1.0;
            obs::count(kRefactors);
            const bool reused =
                lu.refactor(a) &&
                lu.factor_stats().min_pivot >= kRepivotTol * ref_min_pivot;
            if (reused) {
                obs::count(kSymbolicReuse);
                out.x[i] = lu.solve(s.rhs());
                min_pivot = lu.factor_stats().min_pivot;
                fill_growth = lu.factor_stats().fill_growth;
                if (certify && i % obs::kCertifyStride == 0) {
                    const obs::SolveCertificate cert =
                        certify_solve(lu, a, out.x[i], s.rhs(), opt.certify,
                                      /*allow_fault=*/false);
                    obs::record_certificate(kCertSite, cert, opt.certify);
                }
            } else {
                obs::count(kRepivotFallbacks);
                // A fresh local factorization; the worker's reusable copy is
                // left alone — refactor() recomputes every value, so a
                // discarded pass leaves no numeric residue for later points.
                SparseLU<std::complex<double>> fresh(a);
                out.x[i] = fresh.solve(s.rhs());
                min_pivot = fresh.factor_stats().min_pivot;
                fill_growth = fresh.factor_stats().fill_growth;
                if (certify && i % obs::kCertifyStride == 0) {
                    const obs::SolveCertificate cert =
                        certify_solve(fresh, a, out.x[i], s.rhs(), opt.certify,
                                      /*allow_fault=*/false);
                    obs::record_certificate(kCertSite, cert, opt.certify);
                }
            }
            obs::ts_append(kMinPivotChannel, freqs[i], min_pivot);
            obs::ts_append(kFillGrowthChannel, freqs[i], fill_growth);
            // Heartbeat bookkeeping only — never the obs registry, so the
            // merged observation sequence stays thread-count independent.
            progress.advance();
        }
    });
    return out;
}

} // namespace snim::sim
