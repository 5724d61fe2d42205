// 1-norm condition estimation and componentwise backward error.
//
// rcond comes from the Hager/Higham power-iteration estimator (the LAPACK
// xLACON family): ||A^{-1}||_1 is estimated from a handful of solve /
// solve_transpose pairs on an existing factorization, never from an explicit
// inverse, so the cost per certificate is a few triangular sweeps.  The
// estimate is a lower bound on the true norm (it maximises |x|_1 over a
// subset of the unit ball), which makes the derived rcond an *upper* bound:
// when the estimate already says "ill-conditioned", the truth is at least as
// bad.  In practice the estimate is within a small factor (rarely > 3x) of
// the exact value; certify_test.cpp checks both properties against exact
// dense inverses.
//
// The componentwise backward error
//
//   omega = max_i |A x - b|_i / (|A| |x| + |b|)_i
//
// (Oettli-Prager) is the standard "was this solve trustworthy" residual
// test: omega ~ machine epsilon means x is the exact solution of a system
// whose entries are relatively perturbed by omega.  Everything here is
// header-only and templated so it works on SparseLU/DenseLU over double and
// complex<double> without adding any library dependency.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <type_traits>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"

namespace snim {

namespace condest_detail {

inline double mag(double v) { return std::fabs(v); }
inline double mag(const std::complex<double>& v) { return std::abs(v); }

/// Unit-magnitude "sign" of v; the zero convention (0 -> 1) matches xLACON.
inline double sign_of(double v) { return v >= 0.0 ? 1.0 : -1.0; }
inline std::complex<double> sign_of(const std::complex<double>& v) {
    const double m = std::abs(v);
    return m == 0.0 ? std::complex<double>(1.0, 0.0) : v / m;
}

template <class T>
double norm1_vec(const std::vector<T>& v) {
    double s = 0.0;
    for (const T& e : v) s += mag(e);
    return s;
}

} // namespace condest_detail

/// ||A||_1 (max column abs sum) of a CSC matrix — O(nnz), computed once per
/// factorization and cached by the LU classes.
template <class T>
double norm1(const SparseCSC<T>& a) {
    double best = 0.0;
    const auto& cp = a.col_ptr();
    const auto& vx = a.values();
    for (size_t j = 0; j < a.size(); ++j) {
        double s = 0.0;
        for (int p = cp[j]; p < cp[j + 1]; ++p)
            s += condest_detail::mag(vx[static_cast<size_t>(p)]);
        best = std::max(best, s);
    }
    return best;
}

/// ||A||_1 of a dense matrix.
template <class T>
double norm1(const DenseMatrix<T>& a) {
    double best = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) {
        double s = 0.0;
        for (size_t i = 0; i < a.rows(); ++i) s += condest_detail::mag(a(i, j));
        best = std::max(best, s);
    }
    return best;
}

/// Hager/Higham estimate of ||A^{-1}||_1 from a factorization exposing
/// solve() and solve_transpose().  For complex T the transpose solve is
/// turned into a conjugate-transpose solve by conjugating in and out, which
/// is what the gradient step of the 1-norm maximisation actually needs.
template <class T, class Solver>
double norm1_inv_estimate(const Solver& lu, size_t n, int max_iter = 5) {
    if (n == 0) return 0.0;
    std::vector<T> x(n, T(1.0 / static_cast<double>(n)));
    double est = 0.0;
    int last_j = -1;
    for (int iter = 0; iter < max_iter; ++iter) {
        const std::vector<T> y = lu.solve(x);
        const double e = condest_detail::norm1_vec(y);
        if (!std::isfinite(e)) return std::numeric_limits<double>::infinity();
        if (iter > 0 && e <= est) break; // estimate stopped growing
        est = e;
        std::vector<T> z(n);
        for (size_t i = 0; i < n; ++i) z[i] = condest_detail::sign_of(y[i]);
        if constexpr (std::is_same_v<T, std::complex<double>>) {
            for (auto& v : z) v = std::conj(v);
            z = lu.solve_transpose(z);
            for (auto& v : z) v = std::conj(v);
        } else {
            z = lu.solve_transpose(z);
        }
        // Next vertex: the unit vector where |A^{-H} sign(y)| peaks.
        size_t j = 0;
        double best = -1.0;
        for (size_t i = 0; i < n; ++i) {
            const double m = condest_detail::mag(z[i]);
            if (m > best) {
                best = m;
                j = i;
            }
        }
        if (static_cast<int>(j) == last_j) break; // converged to a fixed vertex
        last_j = static_cast<int>(j);
        std::fill(x.begin(), x.end(), T{});
        x[j] = T(1.0);
    }
    return est;
}

/// rcond = 1 / (||A||_1 * est ||A^{-1}||_1) given the precomputed matrix
/// norm; 0 when either factor is non-finite or the matrix is empty.
template <class T, class Solver>
double rcond_from_norm1(const Solver& lu, size_t n, double a_norm1,
                        int max_iter = 5) {
    if (n == 0 || a_norm1 <= 0.0 || !std::isfinite(a_norm1)) return 0.0;
    const double inv = norm1_inv_estimate<T>(lu, n, max_iter);
    if (inv <= 0.0) return 0.0;
    if (!std::isfinite(inv)) return 0.0;
    return 1.0 / (a_norm1 * inv);
}

/// Componentwise backward error omega = max_i |Ax-b|_i / (|A||x|+|b|)_i,
/// hybridised with a normwise floor on the denominator (Arioli/Demmel/Duff):
/// a row whose own magnitude is vanishingly small against the dominant row
/// (a gmin-only anchor node with zero rhs and a ~1e-18 V solution, say) has
/// num ~= den ~= 1e-30 and would report omega = 1 — a 100% violation of an
/// equation that contributes nothing to the solution, unfixable by iterative
/// refinement because the correction itself rounds.  Such rows are measured
/// against scale * kOmegaDenFloorRel instead, so they register in proportion
/// to their actual influence.  An all-zero row/rhs pair stays consistent
/// (contributes 0); a NaN residual poisons the certificate with +inf.
inline constexpr double kOmegaDenFloorRel = 1e-8; // ~sqrt(machine epsilon)

template <class T>
double componentwise_backward_error(const SparseCSC<T>& a, const std::vector<T>& x,
                                    const std::vector<T>& b) {
    // A x and |A| |x| in one column pass into per-thread scratch: each row
    // accumulates in ascending column order and zero x entries are
    // skipped, as SparseCSC::multiply does.
    thread_local std::vector<T> ax;
    thread_local std::vector<double> den_ax;
    ax.assign(a.size(), T{});
    den_ax.assign(a.size(), 0.0);
    {
        const auto& cp = a.col_ptr();
        const auto& ri = a.row_idx();
        const auto& vx = a.values();
        for (size_t j = 0; j < a.size(); ++j) {
            const T xj = x[j];
            if (xj == T{}) continue;
            const double xm = condest_detail::mag(xj);
            for (int p = cp[j]; p < cp[j + 1]; ++p) {
                const auto r = static_cast<size_t>(ri[static_cast<size_t>(p)]);
                const T v = vx[static_cast<size_t>(p)];
                ax[r] += v * xj;
                den_ax[r] += condest_detail::mag(v) * xm;
            }
        }
    }
    double scale = 0.0;
    for (size_t i = 0; i < ax.size(); ++i)
        scale = std::max(scale, den_ax[i] + condest_detail::mag(b[i]));
    const double den_floor = scale * kOmegaDenFloorRel;
    double omega = 0.0;
    for (size_t i = 0; i < ax.size(); ++i) {
        const double num = condest_detail::mag(ax[i] - b[i]);
        const double den =
            std::max(den_ax[i] + condest_detail::mag(b[i]), den_floor);
        if (den == 0.0) {
            if (num != 0.0) return std::numeric_limits<double>::infinity();
            continue;
        }
        const double w = num / den;
        if (!(w <= omega)) // NaN-safe max: a NaN row poisons the certificate
            omega = std::isnan(w) ? std::numeric_limits<double>::infinity() : w;
    }
    return omega;
}

/// One step of iterative refinement on an existing factorization:
/// x += A^{-1} (b - A x).  Returns the refined backward error.
template <class T, class Solver>
double refine_once(const Solver& lu, const SparseCSC<T>& a, std::vector<T>& x,
                   const std::vector<T>& b) {
    const std::vector<T> ax = a.multiply(x);
    std::vector<T> r(b.size());
    for (size_t i = 0; i < b.size(); ++i) r[i] = b[i] - ax[i];
    const std::vector<T> d = lu.solve(r);
    for (size_t i = 0; i < x.size(); ++i) x[i] += d[i];
    return componentwise_backward_error(a, x, b);
}

} // namespace snim
