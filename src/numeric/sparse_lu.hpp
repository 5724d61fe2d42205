// Left-looking sparse LU with threshold partial pivoting (Gilbert-Peierls,
// the algorithm behind CSparse/KLU).  This is the workhorse solver for MNA
// systems and substrate meshes.
//
// Ordering: columns are pre-permuted by a greedy minimum-degree ordering on
// the symmetrized pattern (applied symmetrically, so the diagonal stays the
// diagonal).  MNA matrices carry a dense port-coupling block from the
// substrate macromodel; factored in natural order that block smears fill
// across the whole matrix, while min-degree pushes it to the trailing
// columns and keeps the rest sparse.  The ordering is a pure function of
// the pattern with lowest-index tie-breaking, so it is deterministic.
//
// Pivoting: for each column the candidate with the largest magnitude is
// found; the diagonal entry is kept whenever it is within `pivot_tol` of the
// maximum, which preserves sparsity on the diagonally dominant matrices that
// dominate this workload while staying robust for MNA voltage-source rows.
//
// Factorizations on a fixed sparsity pattern can be refreshed in place with
// `refactor(values)`: the symbolic pattern and pivot sequence from the last
// full factorization are reused and only the numeric sweep reruns, which is
// what makes Newton iterations and AC/transient sweeps cheap.  `ReusableLU`
// wraps the full-vs-refactor decision with a pivot-health guard.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "numeric/sparse.hpp"

namespace snim {

/// Numerical health of one factorization, for solver-health telemetry and
/// failure diagnosis: a shrinking min |pivot| or a growing fill ratio is
/// the classic early warning of an ill-conditioned MNA system.
struct LuFactorStats {
    double min_pivot = 0.0;   // smallest |pivot| over all columns
    double max_pivot = 0.0;   // largest |pivot|
    double fill_growth = 0.0; // nnz(L+U) / nnz(A)
    size_t pivot_swaps = 0;   // off-diagonal pivots chosen
    /// Hager/Higham reciprocal 1-norm condition estimate.  Computed lazily —
    /// it costs a few extra triangular solves — so it is 0 until the first
    /// rcond_estimate() call after a (re)factorization fills it in.
    double rcond = 0.0;
};

template <class T>
class SparseLU {
public:
    /// `last_cols` (optional) lists original columns to eliminate after all
    /// others, whatever their degree.  Callers planning partial
    /// refactorizations pass their changing columns here: the elimination
    /// closure of a trailing column is just itself, so the per-iteration
    /// refresh cost collapses.  Null keeps the pure min-degree order (and
    /// bit-identical results to builds that predate the parameter).
    explicit SparseLU(const SparseCSC<T>& a, double pivot_tol = 0.1,
                      const std::vector<int>* last_cols = nullptr);
    explicit SparseLU(const Triplets<T>& t, double pivot_tol = 0.1)
        : SparseLU(SparseCSC<T>(t), pivot_tol) {}

    /// Re-runs the numeric factorization on `a` reusing this factorization's
    /// pattern and pivot sequence.  `a` must have exactly the sparsity
    /// pattern of the matrix this object was constructed from (the caller —
    /// normally ReusableLU, by a pattern comparison or a matching
    /// RefactorHint key — guarantees it; violating it is undefined).  Column
    /// updates are applied in ascending pivot order, the same order the full
    /// constructor uses, so when the fixed pivot sequence matches what a
    /// fresh factorization would choose the result is bit-identical to one.
    /// Returns false on an exactly zero pivot (the factorization is then
    /// partially overwritten and must not be used for solves).
    bool refactor(const SparseCSC<T>& a);

    /// Numeric refactorization restricted to the elimination closure of the
    /// listed original indices.  `a` must be value-identical to the matrix
    /// the current factors came from at every entry (r, c) outside
    /// changed_cols x changed_cols (pattern identical everywhere, as for
    /// refactor()).  Every column not recomputed would reproduce its stored
    /// values bit-exactly — its A column and every L column it consumes are
    /// unchanged — so the result is bit-identical to a full refactor(a), at
    /// the cost of only the changed columns and their downstream dependents.
    /// The closure is cached and rebuilt when `changed_cols` differs from
    /// the previous call.  Incremental transient assembly leans on this:
    /// between Newton iterations only the nonlinear-device block moves.
    ///
    /// When the closure is the last m pivot positions and every changed row
    /// pivots inside them (the case `last_cols` sets up), the refresh
    /// touches the trailing block only.  The U entries above the block and
    /// the updates x[r] -= L(r,jp)*U(jp,j) the sweep applies to block rows
    /// r from columns jp left of the block are fixed while the contract
    /// holds.  The first refresh after each full factorization or full
    /// refactor() caches those updates per block column as (r, L(r,jp),
    /// U(jp,j)), in the sweep's order (ascending jp, then L order).  A
    /// refresh then clears and scatters the block rows, replays the cached
    /// updates with the sweep's own expression (so they round, or contract
    /// to fused multiply-adds, exactly as the sweep's do), runs the
    /// in-block updates and takes pivots and L quotients as the sweep does.
    /// Any other closure runs the column sweep over the closure.
    bool refactor_partial(const SparseCSC<T>& a, const std::vector<int>& changed_cols);

    /// Solves A x = b.
    std::vector<T> solve(const std::vector<T>& b) const;
    /// Allocation-free solve for hot loops: x = A^{-1} b using the caller's
    /// scratch buffer.  `b`, `x` and `scratch` must be distinct objects.
    /// Bit-identical to solve().
    void solve_into(const std::vector<T>& b, std::vector<T>& x,
                    std::vector<T>& scratch) const;
    /// Solves A^T x = b.
    std::vector<T> solve_transpose(const std::vector<T>& b) const;

    size_t size() const { return n_; }
    size_t nnz() const;

    /// Health of this factorization (valid once the constructor returns).
    const LuFactorStats& factor_stats() const { return stats_; }

    /// Reciprocal 1-norm condition estimate 1 / (||A||_1 * est ||A^{-1}||_1)
    /// on the current factors (Hager/Higham, a few solve/solve_transpose
    /// sweeps).  Cached per factorization — refactor() invalidates it — and
    /// mirrored into factor_stats().rcond on first computation.
    double rcond_estimate() const;

    /// ||A||_1 of the matrix this factorization was built from (refreshed by
    /// refactor()); the certificate layer reuses it for error scaling.
    double norm1() const { return a_norm1_; }

private:
    struct Entry {
        int row;
        T value;
    };
    using Column = std::vector<Entry>;
    // One cached trailing-block update, replayed as x[row] -= l * u: the
    // sweep's own expression, so it rounds (or contracts) the same way.
    struct Product {
        int row;
        T l; // L(row, jp)
        T u; // U(jp, j)
    };

    bool refactor_columns(const SparseCSC<T>& a, const int* cols, size_t ncols);
    bool refactor_trailing(const SparseCSC<T>& a);
    void finish_refactor();
    void finish_partial();
    void set_refreshed_stats(double min_pivot, double max_pivot, double norm1);
    void build_closure(const std::vector<int>& changed_cols);
    void build_block_cache(const SparseCSC<T>& a, const std::vector<int>& changed_cols);

    size_t n_ = 0;
    std::vector<Column> l_;  // unit-lower; first entry of column k is the diagonal (1)
    std::vector<Column> u_;  // upper; diagonal stored last in each column
    std::vector<int> perm_;  // min-degree order: perm_[k] = original index factored k-th
    std::vector<int> iperm_; // original index -> permuted position
    std::vector<int> pinv_;  // permuted row -> pivot position
    mutable LuFactorStats stats_;     // mutable: rcond is filled lazily
    double a_norm1_ = 0.0;            // ||A||_1 of the factored matrix
    mutable double rcond_cache_ = -1.0; // < 0: not yet estimated

    // Refactor scratch and incremental bookkeeping.  pivot_mag_ /
    // col_abs_sum_ persist per-column |pivot| and column abs-sums; a
    // partial refactor folds the closure's entries into the cached extrema
    // of the other columns (other_*), which gives the global stats (min/max
    // pivot, ||A||_1) the full ascending scan computes, NaN handling
    // included, without visiting untouched columns.
    mutable std::vector<T> work_;        // dense scatter column
    std::vector<double> pivot_mag_;      // |pivot| per permuted column
    std::vector<double> col_abs_sum_;    // abs column sum per original column
    std::vector<int> closure_;           // permuted columns to recompute, ascending
    std::vector<int> closure_key_;       // changed_cols the closure was built for
    bool closure_valid_ = false;

    // Caches a partial refactor builds from the factors and keeps until the
    // next full factorization or full refactor() changes the values outside
    // the closure (cache_valid_ false).
    bool cache_valid_ = false;
    double other_min_pivot_ = 0.0;  // extrema over columns outside the closure,
    double other_max_pivot_ = 0.0;  // NaNs skipped
    double other_norm1_ = 0.0;
    // Trailing-block refresh (see refactor_partial); block_begin_ == n_
    // when the closure is not a trailing block.
    size_t block_begin_ = 0;
    std::vector<int> block_arow_ptr_;   // per block column: range in block_arow_
    std::vector<int> block_arow_;       // pivot row of each A entry (-1: above the block)
    std::vector<int> block_prod_ptr_;   // per block column: range in block_prod_
    std::vector<Product> block_prod_;   // (block row, L(r,jp), U(jp,j)) in sweep order
    std::vector<int> block_uq_;         // per block column: first in-block U entry
};

/// Owns a SparseLU and decides, per factor() call, between the cheap numeric
/// refactor path and a full re-pivoting factorization:
///
///   * first call or pattern change -> full factorization;
///     its min |pivot| becomes the health reference.  A call whose
///     RefactorHint key matches the held factors' skips the comparison.
///   * otherwise refactor; if the refactored min |pivot| degrades below
///     repivot_tol times the reference (or a pivot lands on exact zero) the
///     stale pivot sequence is declared unhealthy and a full factorization
///     runs instead.
///
/// Registry counters: `numeric/lu_refactor` per reuse attempt, split into
/// `numeric/lu_symbolic_reuse` (kept) and `numeric/lu_repivot_fallbacks`
/// (guard tripped).  Fault point `numeric.lu.repivot` forces a fallback.
template <class T>
class ReusableLU {
public:
    struct Options {
        double pivot_tol = 0.1;   // threshold partial pivoting (full factor)
        double repivot_tol = 1e-3; // min-pivot degradation guard vs. reference
    };

    ReusableLU() = default;
    explicit ReusableLU(Options opt) : opt_(opt) {}

    /// Caller-supplied context for an incremental refactorization.  `key` is
    /// an opaque fingerprint of everything that shapes the matrix OUTSIDE
    /// the block changed_cols x changed_cols (for transient assembly: dt
    /// bits, integration order, assembler epoch): two matrices under one
    /// nonzero key must be value-identical at every entry outside that
    /// block and share their pattern.  When a factor() call carries the
    /// same nonzero key as the factors it would refresh, the pattern check
    /// is skipped and only the elimination closure of `changed_cols` is
    /// recomputed (SparseLU::refactor_partial) — bit-identical to a full
    /// refactor by construction; with a null column list a matching key
    /// still skips the pattern check and runs the full numeric refactor.
    /// Only a zero key or a key change compares patterns (a mismatch pays
    /// for a full factorization) and runs the full numeric refactor.
    struct RefactorHint {
        uint64_t key[3] = {0, 0, 0};
        const std::vector<int>* changed_cols = nullptr;
    };

    /// Factors `a`, reusing the cached symbolic analysis when healthy.
    /// Raises (like the SparseLU constructor) on a singular matrix; the
    /// object is then empty, never stale.
    void factor(const SparseCSC<T>& a) { factor(a, RefactorHint{}); }
    void factor(const SparseCSC<T>& a, const RefactorHint& hint);

    bool has_factor() const { return lu_ != nullptr; }
    const SparseLU<T>& lu() const {
        SNIM_ASSERT(lu_ != nullptr, "ReusableLU used before factor()");
        return *lu_;
    }

    std::vector<T> solve(const std::vector<T>& b) const { return lu().solve(b); }
    std::vector<T> solve_transpose(const std::vector<T>& b) const {
        return lu().solve_transpose(b);
    }
    const LuFactorStats& factor_stats() const { return lu().factor_stats(); }
    double rcond_estimate() const { return lu().rcond_estimate(); }

    const Options& options() const { return opt_; }

private:
    void full_factor(const SparseCSC<T>& a, const std::vector<int>* last_cols);

    Options opt_;
    std::unique_ptr<SparseLU<T>> lu_;
    std::vector<int> pattern_cp_, pattern_ri_; // pattern the cache was built on
    double ref_min_pivot_ = 0.0; // min |pivot| of the last full factorization
    uint64_t hint_key_[3] = {0, 0, 0}; // key of the factors currently held
};

extern template class SparseLU<double>;
extern template class SparseLU<std::complex<double>>;
extern template class ReusableLU<double>;

} // namespace snim
