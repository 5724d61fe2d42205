#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>

#include "mor/elimination.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace snim::mor {

namespace {

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kReducePhase("mor/reduce_by_solve");
const obs::Phase kProbePhase("mor/probe_reduction_error");
const obs::Counter kResidualChecks("mor/cg_residual_checks");
const obs::Counter kSweeps("mor/cg_sweeps");
const obs::Counter kSolves("mor/cg_solves");
const obs::Counter kProbeSolves("mor/probe_cg_solves");
const obs::Value kIters("mor/cg_iters");

/// CG stopping rule: relative residual ||r||_2 <= kCgTol ||b||_2 in the
/// original variables.  At 1e-11 the port conductances of both figure
/// meshes sit within 5e-8 sqrt(g_ii g_jj) of a solve to 1e-15 (1e-9 moved
/// fig3 by 0.001 dB).
constexpr double kCgTol = 1e-11;
constexpr int kCgMaxIter = 20000;

/// A lane's original-space residual is evaluated on every sweep from the
/// first on which its split residual, which CG keeps anyway, has fallen to
/// ||r^||_2 <= kCheckFrom * kCgTol ||b^||_2.  At the stop the relative
/// split residual can read 1e2-1e3 times the relative original one, so a
/// lower trigger stops lanes late.  Trigger factor against the iterations
/// (sum / max per reduction) and the evaluations, fig3 NMOS then VCO
/// (probe solves included):
///   1:           929 / 60 and 822 / 55,   12 /  12
///   10:          848 / 55 and 738 / 49,   11 /  10
///   100:         792 / 53 and 661 / 46,   18 /  17
///   1e3:         792 / 53 and 641 / 46,   47 /  49
///   every sweep: 792 / 53 and 641 / 46,  250 / 213
/// 1e3 is the smallest decade that keeps the iterations of an evaluation
/// on every sweep.
constexpr double kCheckFrom = 1e3;

/// Relaxation of the modified incomplete Cholesky pivots: the share of each
/// dropped fill entry moved onto the diagonal.  Iterations over omega on
/// the figure meshes (sum per reduction, fig3 NMOS / VCO) plateau at
/// 0.98-0.995: 1,792 / 1,182 at 0 (IC(0)), 916 / 657 at 0.98, 792 / 641 at
/// 0.99, 771 / 646 at 0.995 and 1,018 / 800 at 1 (plain MIC(0)).
constexpr double kRicOmega = 0.99;

/// Right-hand sides the CG advances in lockstep.  The triangular sweeps are
/// latency-bound (row i waits on row i-1); four independent recurrences
/// through the same rows hide that latency.  Every lane widens each work
/// vector by one n_internal column, so more lanes cost memory.
constexpr size_t kLanes = 4;

/// The internal-internal conductance block G_ii: diagonal in `diag`,
/// off-diagonal entries in compressed sparse rows, each row sorted by
/// column with parallel edges merged.  factor_ric0() rescales it in place
/// to unit pivots.  The lane kernels take kLanes vectors interleaved:
/// entry i of lane l at i * kLanes + l.
struct Csr {
    std::vector<int> ptr, idx;
    /// Off-diagonal entries: g_ij as assembled, a'_ij = s_i g_ij s_j once
    /// factored.
    std::vector<double> val;
    /// g_ii as assembled; factor_ric0() turns it into `scale`.
    std::vector<double> diag;
    /// s_i = 1 / sqrt(d_i) and k_i = 2 - g_ii / d_i of the pivots d_i, set
    /// by factor_ric0().
    std::vector<double> scale, shift;
    /// First entry of each row with a column above the row (rows are
    /// sorted, so [ptr[i], upper[i]) is the strict lower triangle).
    std::vector<int> upper;
    size_t n = 0;
    /// Rows of the ring that holds u in apply(): the smallest power of two
    /// above the lower bandwidth (the largest i - j of a lower entry).
    size_t window = 1;

    /// RIC(0): M = (D + L) D^-1 (D + L)^T with L the strict lower triangle
    /// of G_ii.  On a graph without triangles (the 7-point mesh) zero-fill
    /// incomplete Cholesky keeps L equal to G_ii's own entries, so only the
    /// pivots are computed.  Each fill entry (i, k) that elimination of a
    /// row j < i, k would create is dropped, and kRicOmega of it is moved
    /// onto the diagonal:
    ///   d_i = g_ii - sum_{j<i} (g_ij / d_j) (g_ij + omega sum_{k>j, k!=i} g_jk)
    /// (Gustafsson 1978; Axelsson and Lindskog 1986).  At omega = 0 this is
    /// IC(0); at omega = 1 (MIC(0)) M keeps G_ii's row sums.  The inner sum
    /// runs over row j's upper entries, at most three on the mesh.  A pivot
    /// <= 0 falls back to g_ii: it arises on a floating island (its last
    /// pivot cancels to zero), and any positive D keeps M SPD.
    ///
    /// The system is then rescaled to unit pivots, S = diag(s_i):
    /// A' = S G_ii S has the factor F = I + S L S, M' = S M S = F F^T and
    /// A' = F + F^T - K with K = diag(k_i).  This overwrites the entries,
    /// the diagonal and the pivots and allocates nothing.
    void factor_ric0() {
        std::vector<double>& pivot = shift; // d_i, then k_i in place
        pivot.resize(n);
        upper.resize(n);
        size_t bandwidth = 0;
        for (size_t i = 0; i < n; ++i) {
            int mid = ptr[i];
            while (mid < ptr[i + 1] && idx[static_cast<size_t>(mid)] < static_cast<int>(i)) ++mid;
            upper[i] = mid;
            if (mid > ptr[i])
                bandwidth = std::max(bandwidth,
                                     i - static_cast<size_t>(idx[static_cast<size_t>(ptr[i])]));
            double d = diag[i];
            for (int p = ptr[i]; p < mid; ++p) {
                const double g = val[static_cast<size_t>(p)];
                const size_t j = static_cast<size_t>(idx[static_cast<size_t>(p)]);
                double fill = 0.0;
                for (int q = upper[j]; q < ptr[j + 1]; ++q)
                    if (idx[static_cast<size_t>(q)] != static_cast<int>(i))
                        fill += val[static_cast<size_t>(q)];
                d -= g * (1.0 / pivot[j]) * (g + kRicOmega * fill);
            }
            if (!(d > 0.0)) d = diag[i];
            pivot[i] = d;
        }
        for (size_t i = 0; i < n; ++i) {
            const double d = pivot[i];
            pivot[i] = 2.0 - diag[i] / d;
            diag[i] = 1.0 / std::sqrt(d);
        }
        scale.swap(diag); // the s_i, in diag's storage; diag is left empty
        for (size_t i = 0; i < n; ++i)
            for (int p = ptr[i]; p < ptr[i + 1]; ++p) {
                const size_t e = static_cast<size_t>(p);
                val[e] = scale[i] * val[e] * scale[static_cast<size_t>(idx[e])];
            }
        window = 1;
        while (window <= bandwidth) window *= 2;
    }

    /// r = F^-1 S r per lane, in place: a forward sweep over the lower
    /// entries.
    void forward_scaled(double* r) const {
        for (size_t i = 0; i < n; ++i) {
            double s[kLanes];
            for (size_t l = 0; l < kLanes; ++l) s[l] = scale[i] * r[i * kLanes + l];
            for (int p = ptr[i]; p < upper[i]; ++p) {
                const double v = val[static_cast<size_t>(p)];
                const double* rj = r + static_cast<size_t>(idx[static_cast<size_t>(p)]) * kLanes;
                for (size_t l = 0; l < kLanes; ++l) s[l] -= v * rj[l];
            }
            for (size_t l = 0; l < kLanes; ++l) r[i * kLanes + l] = s[l];
        }
    }

    /// x = S F^-T x per lane, in place: a backward sweep over the upper
    /// entries, then the scaling.
    void backward_scaled(double* x) const {
        for (size_t i = n; i-- > 0;) {
            double s[kLanes];
            for (size_t l = 0; l < kLanes; ++l) s[l] = x[i * kLanes + l];
            for (int p = upper[i]; p < ptr[i + 1]; ++p) {
                const double v = val[static_cast<size_t>(p)];
                const double* xj = x + static_cast<size_t>(idx[static_cast<size_t>(p)]) * kLanes;
                for (size_t l = 0; l < kLanes; ++l) s[l] -= v * xj[l];
            }
            for (size_t l = 0; l < kLanes; ++l) x[i * kLanes + l] = s[l];
        }
        for (size_t i = 0; i < n; ++i)
            for (size_t l = 0; l < kLanes; ++l) x[i * kLanes + l] *= scale[i];
    }

    /// q = F^-1 A' F^-T p per lane without forming A' p (Eisenstat 1981):
    /// with A' = F + F^T - K and t = F^-T p,
    ///   q = t + F^-1 (p - K t).
    /// A backward sweep writes t into q; a forward sweep computes
    /// u = F^-1 (p - K t) row by row and adds it onto q.  pq[l] = p·q,
    /// summed in row order.  Row i reads u only at its lower entries, all
    /// within the lower bandwidth, so u lives in `ring`: `window` rows,
    /// row j at j & (window - 1).
    void apply(const double* p, double* q, double* ring, double* pq) const {
        for (size_t i = n; i-- > 0;) {
            double s[kLanes];
            for (size_t l = 0; l < kLanes; ++l) s[l] = p[i * kLanes + l];
            for (int e = upper[i]; e < ptr[i + 1]; ++e) {
                const double v = val[static_cast<size_t>(e)];
                const double* tj = q + static_cast<size_t>(idx[static_cast<size_t>(e)]) * kLanes;
                for (size_t l = 0; l < kLanes; ++l) s[l] -= v * tj[l];
            }
            for (size_t l = 0; l < kLanes; ++l) q[i * kLanes + l] = s[l];
        }
        std::fill(pq, pq + kLanes, 0.0);
        const size_t mask = window - 1;
        for (size_t i = 0; i < n; ++i) {
            const double* pi = p + i * kLanes;
            double* qi = q + i * kLanes;
            double s[kLanes];
            for (size_t l = 0; l < kLanes; ++l) s[l] = pi[l] - shift[i] * qi[l];
            for (int e = ptr[i]; e < upper[i]; ++e) {
                const double v = val[static_cast<size_t>(e)];
                const double* uj =
                    ring + (static_cast<size_t>(idx[static_cast<size_t>(e)]) & mask) * kLanes;
                for (size_t l = 0; l < kLanes; ++l) s[l] -= v * uj[l];
            }
            double* ui = ring + (i & mask) * kLanes;
            for (size_t l = 0; l < kLanes; ++l) {
                ui[l] = s[l];
                qi[l] += s[l];
                pq[l] += pi[l] * qi[l];
            }
        }
    }

    /// rr[l] = ||S^-1 F r||_2^2 per lane: the residual of the original
    /// system that the split residual r stands for.
    void unsplit_norms(const double* r, double* rr) const {
        std::fill(rr, rr + kLanes, 0.0);
        for (size_t i = 0; i < n; ++i) {
            double s[kLanes];
            for (size_t l = 0; l < kLanes; ++l) s[l] = r[i * kLanes + l];
            for (int p = ptr[i]; p < upper[i]; ++p) {
                const double v = val[static_cast<size_t>(p)];
                const double* rj = r + static_cast<size_t>(idx[static_cast<size_t>(p)]) * kLanes;
                for (size_t l = 0; l < kLanes; ++l) s[l] += v * rj[l];
            }
            for (size_t l = 0; l < kLanes; ++l) {
                const double ri = s[l] / scale[i];
                rr[l] += ri * ri;
            }
        }
    }
};

/// RIC(0)-preconditioned CG on G_ii for up to kLanes right-hand sides at
/// once, their vectors interleaved, in Eisenstat's split form: plain CG on
/// A^ = F^-1 A' F^-T for b^ = F^-1 S b, then x = S F^-T x^.  Its iterates
/// are those of CG on G_ii preconditioned by M (r^ = F^-1 S r, r^·r^ = r·z,
/// p^·A^p^ = p·Ap), so it takes the same iterations without an SpMV.
/// Every lane performs the operations of a solo CG solve in the same
/// order, so its solution is bitwise the one a single-vector solve
/// returns.  A lane whose right-hand side is zero is done at once with
/// x = 0; a converged lane takes a zero step from then on, which leaves
/// its x and r bitwise unchanged.  The buffers are sized once and reused
/// for every block of a reduction.
class LaneCg {
public:
    explicit LaneCg(const Csr& a)
        : a_(a), r_(a.n * kLanes), x_(a.n * kLanes), p_(a.n * kLanes),
          q_(a.n * kLanes), ring_(a.window * kLanes) {}

    /// Zeroes every lane's right-hand side; lanes a block leaves unset stay
    /// idle.
    void clear() { std::fill(r_.begin(), r_.end(), 0.0); }
    /// Entry k of lane l's right-hand side (consumed by solve()).
    double& rhs(size_t k, size_t l) { return r_[k * kLanes + l]; }
    /// Entry k of lane l's solution after solve().
    double x(size_t k, size_t l) const { return x_[k * kLanes + l]; }

    /// Solves all lanes.  `what` prefixes errors, which name the block by
    /// `unit` (port or probe), `first` (the item in lane 0) and `count`
    /// (the lanes in use).  Raises at once when some lane's ||b|| or p·Ap
    /// is not finite or p·Ap <= 0, and when a lane has not converged after
    /// kCgMaxIter iterations.  A lane stops once its original-space
    /// residual ||S^-1 F r^||_2 <= kCgTol ||b||_2; it is evaluated (and
    /// counted in mor/cg_residual_checks, once per sweep) only after the
    /// lane's ||r^|| has reached the kCheckFrom trigger.
    void solve(const char* what, const char* unit, size_t first, size_t count) {
        const size_t len = r_.size();
        double bnorm[kLanes] = {}, check_from[kLanes] = {}, res[kLanes] = {};
        double rr[kLanes] = {}, rr_new[kLanes] = {}, pq[kLanes] = {};
        double alpha[kLanes] = {}, beta[kLanes] = {};
        bool done[kLanes] = {}, checking[kLanes] = {};
        for (size_t i = 0; i < len; i += kLanes)
            for (size_t l = 0; l < kLanes; ++l) bnorm[l] += r_[i + l] * r_[i + l];
        std::fill(x_.begin(), x_.end(), 0.0);
        size_t active = 0;
        for (size_t l = 0; l < kLanes; ++l) {
            bnorm[l] = std::sqrt(bnorm[l]);
            if (!std::isfinite(bnorm[l]))
                breakdown(what, unit, first, count, l, "||b||", bnorm[l]);
            done[l] = bnorm[l] == 0.0;
            if (!done[l]) ++active;
        }
        if (active > 0) {
            a_.forward_scaled(r_.data());
            dot(r_, r_, rr);
            for (size_t l = 0; l < kLanes; ++l)
                check_from[l] = kCheckFrom * kCgTol * std::sqrt(rr[l]);
            p_ = r_;
        }
        int sweeps = 0;
        while (active > 0) {
            if (sweeps == kCgMaxIter)
                raise("%s: CG failed to converge for %s in %d iterations", what,
                      block_name(unit, first, count).c_str(), kCgMaxIter);
            ++sweeps;
            a_.apply(p_.data(), q_.data(), ring_.data(), pq);
            for (size_t l = 0; l < kLanes; ++l) {
                if (done[l]) {
                    alpha[l] = 0.0;
                    continue;
                }
                if (!(std::isfinite(pq[l]) && pq[l] > 0.0))
                    breakdown(what, unit, first, count, l, "p.Ap", pq[l]);
                alpha[l] = rr[l] / pq[l];
            }
            std::fill(rr_new, rr_new + kLanes, 0.0);
            for (size_t i = 0; i < len; i += kLanes)
                for (size_t l = 0; l < kLanes; ++l) {
                    x_[i + l] += alpha[l] * p_[i + l];
                    r_[i + l] -= alpha[l] * q_[i + l];
                    rr_new[l] += r_[i + l] * r_[i + l];
                }
            bool evaluate = false;
            for (size_t l = 0; l < kLanes; ++l) {
                if (done[l]) continue;
                if (std::sqrt(rr_new[l]) <= check_from[l]) checking[l] = true;
                evaluate = evaluate || checking[l];
            }
            if (evaluate) {
                obs::count(kResidualChecks);
                a_.unsplit_norms(r_.data(), res);
                for (size_t l = 0; l < kLanes; ++l) {
                    if (done[l] || !checking[l] || !(std::sqrt(res[l]) <= kCgTol * bnorm[l]))
                        continue;
                    done[l] = true;
                    --active;
                    obs::record_value(kIters, sweeps);
                }
            }
            if (active == 0) break;
            for (size_t l = 0; l < kLanes; ++l) {
                beta[l] = done[l] ? 0.0 : rr_new[l] / rr[l];
                rr[l] = rr_new[l];
            }
            for (size_t i = 0; i < len; i += kLanes)
                for (size_t l = 0; l < kLanes; ++l)
                    p_[i + l] = r_[i + l] + beta[l] * p_[i + l];
        }
        a_.backward_scaled(x_.data());
        obs::count(kSweeps, static_cast<uint64_t>(sweeps));
    }

private:
    static void dot(const std::vector<double>& a, const std::vector<double>& b,
                    double* out) {
        std::fill(out, out + kLanes, 0.0);
        for (size_t i = 0; i < a.size(); i += kLanes)
            for (size_t l = 0; l < kLanes; ++l) out[l] += a[i + l] * b[i + l];
    }

    static std::string block_name(const char* unit, size_t first, size_t count) {
        return count == 1 ? format("%s %zu", unit, first)
                          : format("%ss %zu-%zu", unit, first, first + count - 1);
    }

    [[noreturn]] static void breakdown(const char* what, const char* unit,
                                       size_t first, size_t count, size_t lane,
                                       const char* quantity, double value) {
        raise("%s: CG breakdown for %s (%s = %g in lane %zu): the system is not "
              "finite or not positive definite",
              what, block_name(unit, first, count).c_str(), quantity, value, lane);
    }

    const Csr& a_;
    std::vector<double> r_, x_, p_;
    std::vector<double> q_;    // A^p, with t = F^-T p inside apply()
    std::vector<double> ring_; // u = F^-1 (p - K t), window rows
};

/// The conductance network partitioned into port/internal blocks:
/// Gii (CSR), Gip (per-port sparse columns), dense Gpp, ground legs.
/// Shared by the Schur reduction and the reduction-error probes so both
/// sides of the comparison see the identical assembly (regularisation
/// included).
struct PartitionedG {
    size_t np = 0, ni = 0;
    std::vector<int> port_of, internal_of; // global node -> block index or -1
    Csr a;                                 // Gii, RIC(0)-factored
    std::vector<std::vector<std::pair<int, double>>> gip; // port -> (internal, g)
    std::vector<std::vector<double>> gpp;
    std::vector<double> gnd_int, gnd_port;
};

PartitionedG partition_conductance(const RcNetwork& net,
                                   const std::vector<int>& ports) {
    const size_t n = net.node_count;
    const size_t np = ports.size();
    SNIM_ASSERT(np >= 1, "need at least one port");

    PartitionedG out;
    out.np = np;
    // Index maps: global -> internal index or port index.
    out.port_of.assign(n, -1);
    out.internal_of.assign(n, -1);
    for (size_t j = 0; j < np; ++j) {
        const int p = ports[j];
        SNIM_ASSERT(p >= 0 && static_cast<size_t>(p) < n, "bad port %d", p);
        SNIM_ASSERT(out.port_of[static_cast<size_t>(p)] < 0, "duplicate port %d", p);
        out.port_of[static_cast<size_t>(p)] = static_cast<int>(j);
    }
    size_t ni = 0;
    for (size_t i = 0; i < n; ++i)
        if (out.port_of[i] < 0) out.internal_of[i] = static_cast<int>(ni++);
    out.ni = ni;

    // Assemble Gip (per-port sparse rhs), Gpp, ground terms, the diagonal of
    // Gii and its per-row off-diagonal counts (CSR row pointers).
    Csr& a = out.a;
    a.n = ni;
    a.diag.assign(ni, 0.0);
    a.ptr.assign(ni + 1, 0);
    out.gip.assign(np, {});
    out.gpp.assign(np, std::vector<double>(np, 0.0));
    out.gnd_int.assign(ni, 0.0);
    out.gnd_port.assign(np, 0.0);
    auto& gip = out.gip;
    auto& gpp = out.gpp;
    auto& diag = a.diag;

    for (const auto& e : net.conductances) {
        const int pa = out.port_of[static_cast<size_t>(e.a)];
        const int pb = e.b < 0 ? -2 : out.port_of[static_cast<size_t>(e.b)];
        const int ia = out.internal_of[static_cast<size_t>(e.a)];
        const int ib = e.b < 0 ? -2 : out.internal_of[static_cast<size_t>(e.b)];
        if (e.b < 0) {
            if (pa >= 0)
                out.gnd_port[static_cast<size_t>(pa)] += e.value;
            else
                out.gnd_int[static_cast<size_t>(ia)] += e.value;
            continue;
        }
        if (pa >= 0 && pb >= 0) {
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pb)] -= e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pa)] -= e.value;
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pa)] += e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pb)] += e.value;
        } else if (pa >= 0) {
            gip[static_cast<size_t>(pa)].emplace_back(ib, e.value);
            diag[static_cast<size_t>(ib)] += e.value;
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pa)] += e.value;
        } else if (pb >= 0) {
            gip[static_cast<size_t>(pb)].emplace_back(ia, e.value);
            diag[static_cast<size_t>(ia)] += e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pb)] += e.value;
        } else {
            ++a.ptr[static_cast<size_t>(ia) + 1];
            ++a.ptr[static_cast<size_t>(ib) + 1];
            diag[static_cast<size_t>(ia)] += e.value;
            diag[static_cast<size_t>(ib)] += e.value;
        }
    }
    for (size_t i = 0; i < ni; ++i) {
        diag[i] += out.gnd_int[i];
        // Regularise isolated internal nodes.
        if (diag[i] <= 0.0) diag[i] = 1e-15;
    }

    // Fill the internal-internal entries, then sort each row by column and
    // merge parallel edges, compacting the rows in place.
    for (size_t i = 0; i < ni; ++i) a.ptr[i + 1] += a.ptr[i];
    a.idx.resize(static_cast<size_t>(a.ptr[ni]));
    a.val.resize(static_cast<size_t>(a.ptr[ni]));
    {
        std::vector<int> next(a.ptr.begin(), a.ptr.end() - 1);
        auto put = [&](int row, int col, double g) {
            const size_t p = static_cast<size_t>(next[static_cast<size_t>(row)]++);
            a.idx[p] = col;
            a.val[p] = -g;
        };
        for (const auto& e : net.conductances) {
            if (e.b < 0) continue;
            const int ia = out.internal_of[static_cast<size_t>(e.a)];
            const int ib = out.internal_of[static_cast<size_t>(e.b)];
            if (ia < 0 || ib < 0) continue;
            put(ia, ib, e.value);
            put(ib, ia, e.value);
        }
    }
    std::vector<std::pair<int, double>> row;
    int nnz = 0;
    for (size_t i = 0; i < ni; ++i) {
        row.clear();
        for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p)
            row.emplace_back(a.idx[static_cast<size_t>(p)], a.val[static_cast<size_t>(p)]);
        std::sort(row.begin(), row.end(),
                  [](const auto& x, const auto& y) { return x.first < y.first; });
        a.ptr[i] = nnz;
        for (const auto& [j, v] : row) {
            if (nnz > a.ptr[i] && a.idx[static_cast<size_t>(nnz) - 1] == j) {
                a.val[static_cast<size_t>(nnz) - 1] += v;
            } else {
                a.idx[static_cast<size_t>(nnz)] = j;
                a.val[static_cast<size_t>(nnz)] = v;
                ++nnz;
            }
        }
    }
    a.ptr[ni] = nnz;
    a.idx.resize(static_cast<size_t>(nnz));
    a.val.resize(static_cast<size_t>(nnz));
    a.factor_ric0();
    return out;
}

} // namespace

RcNetwork reduce_by_solve(const RcNetwork& net, const std::vector<int>& ports) {
    obs::ScopedTimer obs_timer(kReducePhase);
    if (fault::fires("mor.cg.fail"))
        raise("substrate reduction: CG failed to converge for port 0 "
              "(fault injected)");
    const size_t np = ports.size();
    PartitionedG part = partition_conductance(net, ports);
    // Allocated before the capacitance tables so that its four
    // 4 x n_internal buffers and its u ring can take the heap holes a
    // previous extraction left; allocated after the tables they did not
    // fit, and the peak RSS of a fig10 run (two extractions) measured 1.5%
    // higher.
    LaneCg cg(part.a);
    const size_t ni = part.ni;
    const auto& gip = part.gip;
    const auto& gnd_port = part.gnd_port;
    const auto& port_of = part.port_of;
    const auto& internal_of = part.internal_of;

    // --- capacitance classification ---------------------------------------
    // Ground caps at internal nodes lump onto ports with influence weights;
    // port-attached caps redistribute their internal plate exactly.
    std::vector<double> cgnd_int(ni, 0.0);
    std::vector<double> cgnd_port(np, 0.0);
    std::unordered_map<long long, double> cpair; // (i<j) port pair caps
    auto pair_key = [](int i, int j) {
        return (static_cast<long long>(std::min(i, j)) << 32) ^
               static_cast<unsigned>(std::max(i, j));
    };
    struct CapAdj {
        size_t k; // internal plate
        int port;
        double c;
    };
    std::vector<CapAdj> capadj;

    for (const auto& e : net.capacitances) {
        const int pa = port_of[static_cast<size_t>(e.a)];
        const int pb = e.b < 0 ? -2 : port_of[static_cast<size_t>(e.b)];
        const int ia = internal_of[static_cast<size_t>(e.a)];
        const int ib = e.b < 0 ? -2 : internal_of[static_cast<size_t>(e.b)];
        if (e.b < 0) {
            if (pa >= 0)
                cgnd_port[static_cast<size_t>(pa)] += e.value;
            else
                cgnd_int[static_cast<size_t>(ia)] += e.value;
        } else if (pa >= 0 && pb >= 0) {
            cpair[pair_key(pa, pb)] += e.value;
        } else if (pa >= 0) {
            capadj.push_back({static_cast<size_t>(ib), pa, e.value});
        } else if (pb >= 0) {
            capadj.push_back({static_cast<size_t>(ia), pb, e.value});
        } else {
            cgnd_int[static_cast<size_t>(ia)] += 0.5 * e.value;
            cgnd_int[static_cast<size_t>(ib)] += 0.5 * e.value;
        }
    }
    std::stable_sort(capadj.begin(), capadj.end(),
                     [](const CapAdj& x, const CapAdj& y) { return x.k < y.k; });
    // The plates of the port-attached caps, and their influence weights
    // m[s * np + j], kept after each block's solutions are dropped.
    std::vector<size_t> plates;
    for (const auto& ca : capadj)
        if (plates.empty() || plates.back() != ca.k) plates.push_back(ca.k);
    std::vector<double> plate_m(plates.size() * np, 0.0);

    // --- influence solves, folded block by block ---------------------------
    // Gii w_j = Gip(:,j) for kLanes ports at a time; M[k][j] = w_j[k] in
    // [0,1].  Each block's columns enter the port conductance matrix
    // Gpp - Gip^T Gii^-1 Gip and the ground-cap lumping, then are dropped.
    std::vector<std::vector<double>> gport = part.gpp;
    for (size_t j0 = 0; j0 < np; j0 += kLanes) {
        const size_t lanes = std::min(kLanes, np - j0);
        if (ni > 0) {
            cg.clear();
            for (size_t l = 0; l < lanes; ++l)
                for (const auto& [k, g] : gip[j0 + l]) cg.rhs(static_cast<size_t>(k), l) += g;
            obs::count(kSolves, lanes);
            cg.solve("substrate reduction", "port", j0, lanes);
        }
        for (size_t l = 0; l < lanes; ++l) {
            const size_t j = j0 + l;
            for (size_t i = 0; i <= j; ++i) {
                double s = 0.0;
                for (const auto& [k, g] : gip[i]) s += g * cg.x(static_cast<size_t>(k), l);
                gport[i][j] -= s;
                if (j != i) gport[j][i] = gport[i][j];
            }
            for (size_t k = 0; k < ni; ++k) {
                if (!(cgnd_int[k] > 0.0)) continue;
                const double m = cg.x(k, l);
                if (m > 1e-12) cgnd_port[j] += cgnd_int[k] * m;
            }
            for (size_t s = 0; s < plates.size(); ++s) plate_m[s * np + j] = cg.x(plates[s], l);
        }
    }

    RcNetwork out;
    out.node_count = np;
    // Ground conductance per port: row sum (includes direct ground legs and
    // the current lost to grounded internal nodes).
    for (size_t i = 0; i < np; ++i) {
        double row = gnd_port[i], terms = std::fabs(gnd_port[i]);
        for (size_t j = 0; j < np; ++j) {
            row += gport[i][j];
            terms += std::fabs(gport[i][j]);
        }
        // Account for internal ground legs: current into ground via Gii^-1
        // is already part of the Schur row sum when the network is grounded.
        // The row of a port without a path to ground cancels to a few ulps
        // of its terms, of either sign; the relative floor reads that as 0.
        constexpr double kLegFloor = 64.0 * std::numeric_limits<double>::epsilon();
        if (row > 1e-18 && row > kLegFloor * terms)
            out.add_g(static_cast<int>(i), -1, row);
        for (size_t j = i + 1; j < np; ++j) {
            const double g = -gport[i][j];
            if (g > 1e-18) out.add_g(static_cast<int>(i), static_cast<int>(j), g);
        }
    }

    // --- port-attached caps -------------------------------------------------
    // After every ground-cap term: for a port with both a conductance and a
    // capacitance into internal nodes, cgnd_port sums in a different order
    // than a plate-by-plate pass would (last-bit differences only).
    for (size_t e = 0, s = 0; e < capadj.size(); ++e) {
        if (plates[s] != capadj[e].k) ++s;
        const double* m_row = &plate_m[s * np];
        const int port = capadj[e].port;
        const double c = capadj[e].c;
        double covered = 0.0;
        for (size_t j = 0; j < np; ++j) {
            const double m = m_row[j];
            if (m <= 1e-12) continue;
            covered += m;
            if (static_cast<int>(j) == port) continue; // shorted plate
            cpair[pair_key(port, static_cast<int>(j))] += c * m;
        }
        // Remainder flows to ground (grounded networks only).
        const double rest = c * std::max(0.0, 1.0 - covered);
        if (rest > 1e-21) cgnd_port[static_cast<size_t>(port)] += rest;
    }

    for (size_t i = 0; i < np; ++i)
        if (cgnd_port[i] > 0.0) out.add_c(static_cast<int>(i), -1, cgnd_port[i]);
    for (const auto& [key, c] : cpair) {
        if (c <= 0.0) continue;
        const int i = static_cast<int>(key >> 32);
        const int j = static_cast<int>(key & 0xffffffff);
        out.add_c(i, j, c);
    }
    return out;
}

double probe_reduction_error(const RcNetwork& full, const RcNetwork& reduced,
                             const std::vector<int>& ports, int probes) {
    obs::ScopedTimer obs_timer(kProbePhase);
    const size_t np = ports.size();
    SNIM_ASSERT(reduced.node_count == np,
                "reduced network has %zu nodes for %zu ports",
                reduced.node_count, np);
    if (probes <= 0 || np == 0) return 0.0;
    PartitionedG part = partition_conductance(full, ports);

    // Fixed-seed xorshift64 so the probe excitations — hence the reported
    // error — are identical run to run and thread-count independent.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next_sign = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return (state >> 32) & 1 ? 1.0 : -1.0;
    };

    double worst = 0.0;
    LaneCg cg(part.a);
    std::vector<std::vector<double>> vs(kLanes, std::vector<double>(np));
    for (size_t t0 = 0; t0 < static_cast<size_t>(probes); t0 += kLanes) {
        const size_t lanes = std::min(kLanes, static_cast<size_t>(probes) - t0);
        for (size_t l = 0; l < lanes; ++l) {
            std::vector<double>& v = vs[l];
            for (double& vi : v) vi = next_sign();
            // Remove the common mode (np > 1): an equal-potential excitation
            // of a weakly grounded substrate drives almost no current, so
            // both sides of the comparison would be CG-tolerance noise and
            // the ratio meaningless.  The differential response is what the
            // reduction must preserve; for a single port the ground
            // admittance IS the model.
            if (np > 1) {
                double mean = 0.0;
                for (double vi : v) mean += vi;
                mean /= static_cast<double>(np);
                if (mean == 1.0 || mean == -1.0) {
                    v[0] = -v[0]; // all-equal pattern: flip one to keep a signal
                    mean += 2.0 * v[0] / static_cast<double>(np);
                }
                for (double& vi : v) vi -= mean;
            }
        }

        // Full-side port currents: i = (Gpp + diag(gnd)) v - Gip^T Gii^-1 Gip v.
        if (part.ni > 0) {
            cg.clear();
            for (size_t l = 0; l < lanes; ++l)
                for (size_t j = 0; j < np; ++j)
                    for (const auto& [k, g] : part.gip[j])
                        cg.rhs(static_cast<size_t>(k), l) += g * vs[l][j];
            obs::count(kProbeSolves, lanes);
            cg.solve("substrate reduction probe", "probe", t0, lanes);
        }
        for (size_t l = 0; l < lanes; ++l) {
            const std::vector<double>& v = vs[l];
            std::vector<double> ifull(np, 0.0);
            for (size_t j = 0; j < np; ++j) {
                double s = part.gnd_port[j] * v[j];
                for (size_t q = 0; q < np; ++q) s += part.gpp[j][q] * v[q];
                for (const auto& [k, g] : part.gip[j])
                    s -= g * cg.x(static_cast<size_t>(k), l);
                ifull[j] = s;
            }

            // Reduced-side currents straight from the macromodel's elements
            // (every reduced node IS a port by the ports-first convention).
            std::vector<double> ired(np, 0.0);
            for (const auto& e : reduced.conductances) {
                const double va = v[static_cast<size_t>(e.a)];
                const double vb = e.b < 0 ? 0.0 : v[static_cast<size_t>(e.b)];
                ired[static_cast<size_t>(e.a)] += e.value * (va - vb);
                if (e.b >= 0) ired[static_cast<size_t>(e.b)] += e.value * (vb - va);
            }

            double dn = 0.0, fn = 0.0;
            for (size_t j = 0; j < np; ++j) {
                dn += (ired[j] - ifull[j]) * (ired[j] - ifull[j]);
                fn += ifull[j] * ifull[j];
            }
            double rel;
            if (fn > 0.0)
                rel = std::sqrt(dn / fn);
            else
                rel = dn > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
            if (!(rel <= worst)) // NaN ranks worst instead of vanishing
                worst = std::isfinite(rel) ? rel
                                           : std::numeric_limits<double>::infinity();
        }
    }
    return worst;
}

} // namespace snim::mor
