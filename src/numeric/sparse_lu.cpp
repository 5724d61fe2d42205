#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "numeric/condest.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace snim {

namespace {

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kFactorPhase("numeric/lu_factor");
const obs::Phase kRefactorPhase("numeric/lu_refactor");
const obs::Phase kSolvePhase("numeric/lu_solve");
const obs::Counter kPivotSwaps("numeric/lu_pivot_swaps");
const obs::Counter kFactorBytes("numeric/sparse_lu_bytes");
const obs::Counter kRefactors("numeric/lu_refactor");
const obs::Counter kPartialRefactors("numeric/lu_partial_refactor");
const obs::Counter kSymbolicReuse("numeric/lu_symbolic_reuse");
const obs::Counter kRepivotFallbacks("numeric/lu_repivot_fallbacks");
const obs::Value kFillNnz("numeric/lu_fill_nnz");
const obs::Value kDim("numeric/lu_dim");
const obs::Value kMinPivot("numeric/lu_min_pivot");
const obs::Value kFillGrowth("numeric/lu_fill_growth");
const obs::Value kRcond("numeric/lu_rcond");

template <class T>
double mag(const T& v) {
    return std::abs(v);
}

// Greedy minimum-degree elimination ordering on the symmetrized pattern.
// Straightforward clique-update formulation (no quotient graph): full
// factorizations are rare here — ReusableLU amortizes one over an entire
// Newton/transient/AC sweep — so ordering cost is irrelevant next to the
// refactor flops it removes.  Deterministic: min degree with lowest-index
// tie-breaking, and once the cheapest remaining node touches everything
// left, the tail is a clique no ordering can improve — it is flushed in
// index order, which also bounds the clique-update cost on dense patterns.
//
// `delayed` (optional, indexed by node) holds nodes that must be eliminated
// after every other node: they are skipped by the degree selection and
// appended in index order once the rest is gone.  Partial refactorization
// is the customer — pushing the columns that change every Newton iteration
// to the end of the elimination order shrinks their update closure to just
// themselves, at a small fill cost confined to the feature that asks for it.
std::vector<int> min_degree_order(size_t n, const std::vector<int>& cp,
                                  const std::vector<int>& ri,
                                  const std::vector<char>* delayed = nullptr) {
    std::vector<std::vector<int>> adj(n);
    for (size_t j = 0; j < n; ++j)
        for (int p = cp[j]; p < cp[j + 1]; ++p) {
            const int i = ri[static_cast<size_t>(p)];
            if (i == static_cast<int>(j)) continue;
            adj[j].push_back(i);
            adj[static_cast<size_t>(i)].push_back(static_cast<int>(j));
        }
    for (auto& l : adj) {
        std::sort(l.begin(), l.end());
        l.erase(std::unique(l.begin(), l.end()), l.end());
    }

    std::vector<char> dead(n, 0);
    std::vector<int> stamp(n, -1);
    std::vector<int> order;
    order.reserve(n);
    std::vector<int> nv; // live neighbours of the node being eliminated
    size_t alive = n;
    int op = 0;
    while (alive > 0) {
        int v = -1;
        size_t best = n + 1;
        for (size_t i = 0; i < n; ++i)
            if (!dead[i] && !(delayed && (*delayed)[i]) && adj[i].size() < best) {
                best = adj[i].size();
                v = static_cast<int>(i);
            }
        if (v < 0) { // only delayed nodes left: flush them in index order
            for (size_t i = 0; i < n; ++i)
                if (!dead[i]) order.push_back(static_cast<int>(i));
            break;
        }
        if (best + 1 >= alive) {
            // Dense tail: the cheapest selectable node touches everything
            // left, so ordering can no longer help — flush in index order,
            // keeping any delayed nodes strictly last.
            for (size_t i = 0; i < n; ++i)
                if (!dead[i] && !(delayed && (*delayed)[i]))
                    order.push_back(static_cast<int>(i));
            if (delayed)
                for (size_t i = 0; i < n; ++i)
                    if (!dead[i] && (*delayed)[i]) order.push_back(static_cast<int>(i));
            break;
        }
        order.push_back(v);
        dead[static_cast<size_t>(v)] = 1;
        --alive;
        nv.clear();
        for (int u : adj[static_cast<size_t>(v)])
            if (!dead[static_cast<size_t>(u)]) nv.push_back(u);
        // Eliminating v turns its live neighbourhood into a clique: drop v
        // (and any dead entries) from each neighbour's list, then connect
        // the neighbours pairwise.  Lists only ever hold live nodes, so
        // list length *is* the live degree.
        for (int u : nv) {
            ++op;
            auto& au = adj[static_cast<size_t>(u)];
            size_t w = 0;
            for (int x : au) {
                if (dead[static_cast<size_t>(x)]) continue;
                au[w++] = x;
                stamp[static_cast<size_t>(x)] = op;
            }
            au.resize(w);
            stamp[static_cast<size_t>(u)] = op;
            for (int x : nv)
                if (stamp[static_cast<size_t>(x)] != op) au.push_back(x);
        }
    }
    return order;
}

} // namespace

template <class T>
SparseLU<T>::SparseLU(const SparseCSC<T>& a, double pivot_tol,
                      const std::vector<int>* last_cols)
    : n_(a.size()) {
    SNIM_ASSERT(pivot_tol >= 0.0 && pivot_tol <= 1.0, "pivot_tol out of range");
    obs::ScopedTimer obs_timer(kFactorPhase);
    size_t pivot_swaps = 0;
    l_.resize(n_);
    u_.resize(n_);
    pinv_.assign(n_, -1);

    // Apply the fill-reducing permutation symmetrically: the factorization
    // below runs on Ap = A(perm, perm), whose columns are materialized once
    // here (row-sorted, so the DFS visit order is deterministic).
    if (last_cols != nullptr && !last_cols->empty()) {
        std::vector<char> delayed(n_, 0);
        for (int c : *last_cols) delayed[static_cast<size_t>(c)] = 1;
        perm_ = min_degree_order(n_, a.col_ptr(), a.row_idx(), &delayed);
    } else {
        perm_ = min_degree_order(n_, a.col_ptr(), a.row_idx());
    }
    iperm_.assign(n_, 0);
    for (size_t k = 0; k < n_; ++k) iperm_[static_cast<size_t>(perm_[k])] = static_cast<int>(k);

    const auto& acp = a.col_ptr();
    const auto& ari = a.row_idx();
    const auto& avx = a.values();
    std::vector<int> cp(n_ + 1, 0);
    std::vector<int> ri(ari.size());
    std::vector<T> vx(avx.size());
    {
        std::vector<std::pair<int, T>> col;
        int at = 0;
        for (size_t kk = 0; kk < n_; ++kk) {
            const auto j = static_cast<size_t>(perm_[kk]);
            col.clear();
            for (int p = acp[j]; p < acp[j + 1]; ++p)
                col.emplace_back(iperm_[static_cast<size_t>(ari[static_cast<size_t>(p)])],
                                 avx[static_cast<size_t>(p)]);
            std::sort(col.begin(), col.end(),
                      [](const auto& x, const auto& y) { return x.first < y.first; });
            for (const auto& [r, v] : col) {
                ri[static_cast<size_t>(at)] = r;
                vx[static_cast<size_t>(at)] = v;
                ++at;
            }
            cp[kk + 1] = at;
        }
    }

    std::vector<T> x(n_, T{});          // scatter workspace
    std::vector<int> topo(n_);          // xi: topological pattern of x
    std::vector<int> mark(n_, -1);      // mark[i] == k -> visited this column
    std::vector<int> stack_node(n_);    // DFS stacks
    std::vector<int> stack_ptr(n_);
    std::vector<std::pair<int, int>> order; // (pivot idx, original row) of pivoted entries
    pivot_mag_.assign(n_, 0.0);

    for (size_t kk = 0; kk < n_; ++kk) {
        const int k = static_cast<int>(kk);

        // --- symbolic: pattern of L\A(:,k) via DFS over pivoted L columns ---
        int top = static_cast<int>(n_);
        for (int p = cp[kk]; p < cp[kk + 1]; ++p) {
            const int start = ri[static_cast<size_t>(p)];
            if (mark[static_cast<size_t>(start)] == k) continue;
            // Iterative DFS; nodes are appended in reverse topological order.
            int head = 0;
            stack_node[0] = start;
            mark[static_cast<size_t>(start)] = k;
            stack_ptr[0] = 0;
            while (head >= 0) {
                const int j = stack_node[static_cast<size_t>(head)];
                const int jp = pinv_[static_cast<size_t>(j)];
                const Column* col = (jp >= 0) ? &l_[static_cast<size_t>(jp)] : nullptr;
                const int len = col ? static_cast<int>(col->size()) : 0;
                bool descended = false;
                for (int q = stack_ptr[static_cast<size_t>(head)]; q < len; ++q) {
                    const int child = (*col)[static_cast<size_t>(q)].row;
                    if (mark[static_cast<size_t>(child)] == k) continue;
                    mark[static_cast<size_t>(child)] = k;
                    stack_ptr[static_cast<size_t>(head)] = q + 1;
                    ++head;
                    stack_node[static_cast<size_t>(head)] = child;
                    stack_ptr[static_cast<size_t>(head)] = 0;
                    descended = true;
                    break;
                }
                if (!descended) {
                    topo[static_cast<size_t>(--top)] = j;
                    --head;
                }
            }
        }

        // Pivoted pattern entries, sorted by ascending pivot index.  This is
        // a valid topological order (column jp only updates rows that pivot
        // later), and — unlike the DFS post-order — it is reproducible from
        // the stored factors alone, so refactor() can replay the exact same
        // accumulation sequence and stay bit-identical to this constructor.
        order.clear();
        for (int p = top; p < static_cast<int>(n_); ++p) {
            const int j = topo[static_cast<size_t>(p)];
            const int jp = pinv_[static_cast<size_t>(j)];
            if (jp >= 0) order.emplace_back(jp, j);
        }
        std::sort(order.begin(), order.end());

        // --- numeric: scatter A(:,k), then sparse forward solve ---
        for (int p = top; p < static_cast<int>(n_); ++p)
            x[static_cast<size_t>(topo[static_cast<size_t>(p)])] = T{};
        for (int p = cp[kk]; p < cp[kk + 1]; ++p)
            x[static_cast<size_t>(ri[static_cast<size_t>(p)])] = vx[static_cast<size_t>(p)];
        for (const auto& [jp, j] : order) {
            const Column& lcol = l_[static_cast<size_t>(jp)];
            const T xj = x[static_cast<size_t>(j)]; // L diagonal is 1
            // Skip the diagonal entry (index 0).
            for (size_t q = 1; q < lcol.size(); ++q)
                x[static_cast<size_t>(lcol[q].row)] -= lcol[q].value * xj;
        }

        // --- pivot selection among not-yet-pivoted rows ---
        int ipiv = -1;
        double best = 0.0;
        for (int p = top; p < static_cast<int>(n_); ++p) {
            const int i = topo[static_cast<size_t>(p)];
            if (pinv_[static_cast<size_t>(i)] >= 0) continue;
            const double m = mag(x[static_cast<size_t>(i)]);
            if (m > best) {
                best = m;
                ipiv = i;
            }
        }
        if (ipiv < 0 || best == 0.0)
            raise("sparse LU: matrix singular at column %d", perm_[kk]);
        // Prefer the diagonal when acceptable (only if row k is in the pattern).
        if (pinv_[kk] < 0 && mark[kk] == k && mag(x[kk]) >= pivot_tol * best) ipiv = k;

        if (ipiv != k) ++pivot_swaps;
        const T pivot = x[static_cast<size_t>(ipiv)];
        const double pmag = mag(pivot);
        pivot_mag_[kk] = pmag;
        if (kk == 0) {
            stats_.min_pivot = stats_.max_pivot = pmag;
        } else {
            stats_.min_pivot = std::min(stats_.min_pivot, pmag);
            stats_.max_pivot = std::max(stats_.max_pivot, pmag);
        }

        // --- gather U(:,k) (pivoted rows) and L(:,k) (remaining rows) ---
        // Exact zeros are kept: the stored pattern is the *symbolic* one, and
        // refactor() relies on every structural position being present (a
        // value that is zero this pass can be nonzero on the next).  U rows
        // follow `order` (ascending pivot index, diagonal last) so a numeric
        // refactor can walk the column as its update schedule.
        Column& ucol = u_[kk];
        Column& lcol = l_[kk];
        for (const auto& [jp, j] : order)
            ucol.push_back({jp, x[static_cast<size_t>(j)]});
        ucol.push_back({k, pivot}); // diagonal last
        pinv_[static_cast<size_t>(ipiv)] = k;
        lcol.push_back({ipiv, T{1}}); // diagonal first
        for (int p = top; p < static_cast<int>(n_); ++p) {
            const int i = topo[static_cast<size_t>(p)];
            if (pinv_[static_cast<size_t>(i)] >= 0) continue;
            lcol.push_back({i, x[static_cast<size_t>(i)] / pivot});
        }
    }

    // Remap L row indices into pivot coordinates so solves are triangular.
    for (auto& col : l_)
        for (auto& e : col) e.row = pinv_[static_cast<size_t>(e.row)];

    stats_.pivot_swaps = pivot_swaps;
    stats_.fill_growth =
        a.nnz() > 0 ? static_cast<double>(nnz()) / static_cast<double>(a.nnz()) : 0.0;
    // Per-column abs sums, kept so partial refactors can refresh ||A||_1
    // without a full pass.  Summation order per column matches norm1(), so
    // the cached reduction stays bit-identical to it.
    col_abs_sum_.assign(n_, 0.0);
    {
        double best = 0.0;
        for (size_t j = 0; j < n_; ++j) {
            double s = 0.0;
            for (int p = acp[j]; p < acp[j + 1]; ++p)
                s += mag(avx[static_cast<size_t>(p)]);
            col_abs_sum_[j] = s;
            best = std::max(best, s);
        }
        a_norm1_ = best;
    }

    if (obs::enabled()) {
        obs::count(kPivotSwaps, pivot_swaps);
        // Factor storage for the memory-attribution report: L + U entries
        // plus the three permutation vectors.
        obs::count(kFactorBytes, nnz() * sizeof(Entry) + 3 * n_ * sizeof(int));
        obs::record_value(kFillNnz, static_cast<double>(nnz()));
        obs::record_value(kDim, static_cast<double>(n_));
        obs::record_value(kMinPivot, stats_.min_pivot);
        obs::record_value(kFillGrowth, stats_.fill_growth);
    }
}

// Numeric recomputation of the listed permuted columns (all of them when
// `cols` is null).  Workspace is indexed by pivot coordinates: every row of
// A maps through iperm_ (min-degree) then pinv_ (pivoting), and the stored
// L/U rows already live in that space.  A column's processing is
// self-contained — it clears exactly its own symbolic pattern before
// scattering and never reads outside it — which is what lets a partial
// sweep skip columns while reusing the same workspace.
template <class T>
bool SparseLU<T>::refactor_columns(const SparseCSC<T>& a, const int* cols, size_t ncols) {
    const auto& cp = a.col_ptr();
    const auto& ri = a.row_idx();
    const auto& vx = a.values();
    if (work_.size() != n_) work_.assign(n_, T{});
    std::vector<T>& x = work_;

    for (size_t ci = 0; ci < ncols; ++ci) {
        const size_t kk = cols ? static_cast<size_t>(cols[ci]) : ci;
        Column& ucol = u_[kk];
        Column& lcol = l_[kk];

        // Clear the symbolic pattern, scatter A(:,k) into pivot coordinates.
        for (const auto& e : ucol) x[static_cast<size_t>(e.row)] = T{};
        for (const auto& e : lcol) x[static_cast<size_t>(e.row)] = T{};
        const auto j = static_cast<size_t>(perm_[kk]);
        double asum = 0.0;
        for (int p = cp[j]; p < cp[j + 1]; ++p) {
            const T v = vx[static_cast<size_t>(p)];
            asum += mag(v);
            x[static_cast<size_t>(pinv_[static_cast<size_t>(
                iperm_[static_cast<size_t>(ri[static_cast<size_t>(p)])])])] = v;
        }
        col_abs_sum_[j] = asum; // same per-column summation order as norm1()

        // Forward solve in stored U order — ascending pivot index, exactly
        // the schedule the full constructor used, so the accumulation is
        // bit-identical when the pivot sequence still matches.
        for (size_t q = 0; q + 1 < ucol.size(); ++q) {
            const int jp = ucol[q].row;
            const T xj = x[static_cast<size_t>(jp)];
            ucol[q].value = xj;
            const Column& lj = l_[static_cast<size_t>(jp)];
            for (size_t r = 1; r < lj.size(); ++r)
                x[static_cast<size_t>(lj[r].row)] -= lj[r].value * xj;
        }

        // The pivot is fixed at pivot coordinate k by the cached sequence.
        const T pivot = x[kk];
        if (pivot == T{}) return false; // stale pivot hit exact zero
        ucol.back().value = pivot;
        for (size_t r = 1; r < lcol.size(); ++r)
            lcol[r].value = x[static_cast<size_t>(lcol[r].row)] / pivot;
        pivot_mag_[kk] = mag(pivot);
    }
    return true;
}

// Trailing-block refresh (see refactor_partial): the closure is the pivot
// range [block_begin_, n_).  Only block rows are cleared, scattered and
// updated; the U entries above the block keep their stored values and the
// cached products stand in for the sweep's updates from the columns left
// of the block, replayed in the sweep's order, so every block row sees the
// same sequence of subtractions as refactor_columns() would apply.
template <class T>
bool SparseLU<T>::refactor_trailing(const SparseCSC<T>& a) {
    const auto& cp = a.col_ptr();
    const auto& vx = a.values();
    if (work_.size() != n_) work_.assign(n_, T{});
    T* x = work_.data();
    const size_t m = n_ - block_begin_;
    for (size_t b = 0; b < m; ++b) {
        const size_t kk = block_begin_ + b;
        Column& ucol = u_[kk];
        Column& lcol = l_[kk];

        std::fill(x + block_begin_, x + n_, T{});
        const auto j = static_cast<size_t>(perm_[kk]);
        const int* arow = block_arow_.data() + block_arow_ptr_[b];
        double asum = 0.0;
        for (int p = cp[j]; p < cp[j + 1]; ++p, ++arow) {
            const T v = vx[static_cast<size_t>(p)];
            asum += mag(v);
            if (*arow >= 0) x[*arow] = v;
        }
        col_abs_sum_[j] = asum; // same per-column summation order as norm1()

        for (int e = block_prod_ptr_[b]; e < block_prod_ptr_[b + 1]; ++e) {
            const Product& pr = block_prod_[static_cast<size_t>(e)];
            x[pr.row] -= pr.l * pr.u;
        }
        for (size_t q = static_cast<size_t>(block_uq_[b]); q + 1 < ucol.size(); ++q) {
            const int jp = ucol[q].row;
            const T xj = x[jp];
            ucol[q].value = xj;
            const Column& lj = l_[static_cast<size_t>(jp)];
            for (size_t r = 1; r < lj.size(); ++r) x[lj[r].row] -= lj[r].value * xj;
        }

        const T pivot = x[kk];
        if (pivot == T{}) return false; // stale pivot hit exact zero
        ucol.back().value = pivot;
        for (size_t r = 1; r < lcol.size(); ++r) lcol[r].value = x[lcol[r].row] / pivot;
        pivot_mag_[kk] = mag(pivot);
    }
    return true;
}

// Rebuild the global reductions from the per-column caches, as the full
// ascending scan: min/max seeded with column 0, so a NaN |pivot| there
// wins and any later NaN never compares; ||A||_1 starts from 0 and skips
// NaN sums.  Values are exact, so the result does not depend on which
// columns the preceding pass touched.
template <class T>
void SparseLU<T>::finish_refactor() {
    double minp = 0.0, maxp = 0.0;
    for (size_t kk = 0; kk < n_; ++kk) {
        const double pmag = pivot_mag_[kk];
        if (kk == 0) {
            minp = maxp = pmag;
        } else {
            minp = std::min(minp, pmag);
            maxp = std::max(maxp, pmag);
        }
    }
    double best = 0.0;
    for (size_t j = 0; j < n_; ++j) best = std::max(best, col_abs_sum_[j]);
    cache_valid_ = false; // values outside any closure moved
    set_refreshed_stats(minp, maxp, best);
}

// The same reductions after a partial refactor: the closure's columns
// folded into the cached extrema of the others, with the scan's NaN rules.
template <class T>
void SparseLU<T>::finish_partial() {
    double minp = other_min_pivot_, maxp = other_max_pivot_, best = other_norm1_;
    for (const int kk : closure_) {
        const double pmag = pivot_mag_[static_cast<size_t>(kk)];
        if (pmag < minp) minp = pmag;
        if (pmag > maxp) maxp = pmag;
        const double s = col_abs_sum_[static_cast<size_t>(perm_[static_cast<size_t>(kk)])];
        if (s > best) best = s;
    }
    if (n_ == 0)
        minp = maxp = 0.0;
    else if (std::isnan(pivot_mag_[0]))
        minp = maxp = pivot_mag_[0];
    set_refreshed_stats(minp, maxp, best);
}

template <class T>
void SparseLU<T>::set_refreshed_stats(double min_pivot, double max_pivot, double norm1) {
    // Pattern and pivot sequence are unchanged, so fill_growth and
    // pivot_swaps carry over; only the pivot magnitudes move.
    stats_.min_pivot = min_pivot;
    stats_.max_pivot = max_pivot;
    stats_.rcond = 0.0;
    a_norm1_ = norm1;
    rcond_cache_ = -1.0; // new values: the cached condition estimate is stale
    obs::record_value(kMinPivot, stats_.min_pivot);
}

template <class T>
bool SparseLU<T>::refactor(const SparseCSC<T>& a) {
    SNIM_ASSERT(a.size() == n_, "refactor shape %zu != %zu", a.size(), n_);
    obs::ScopedTimer obs_timer(kRefactorPhase);
    if (!refactor_columns(a, nullptr, n_)) return false;
    finish_refactor();
    return true;
}

// Ascending sweep over permuted columns marking the elimination closure: a
// column must be recomputed when its A column changed (seed) or when any L
// column it consumes — the non-diagonal rows of stored U(:,kk), all with
// pivot index < kk — was itself marked.  Because dependencies only point to
// lower pivot indices, one ascending pass sees final marks.
template <class T>
void SparseLU<T>::build_closure(const std::vector<int>& changed_cols) {
    std::vector<char> in(n_, 0);
    for (int c : changed_cols)
        in[static_cast<size_t>(iperm_[static_cast<size_t>(c)])] = 1;
    closure_.clear();
    for (size_t kk = 0; kk < n_; ++kk) {
        if (!in[kk]) {
            const Column& ucol = u_[kk];
            for (size_t q = 0; q + 1 < ucol.size(); ++q)
                if (in[static_cast<size_t>(ucol[q].row)]) {
                    in[kk] = 1;
                    break;
                }
        }
        if (in[kk]) closure_.push_back(static_cast<int>(kk));
    }
    closure_key_ = changed_cols;
    closure_valid_ = true;
    cache_valid_ = false;
}

// Builds what a partial refactor reuses from the held factors: the extrema
// of the columns outside the closure and, when the closure is a trailing
// block that every changed row pivots into, the block caches.  A changed
// row pivoting above the block could move U entries there, so that case
// keeps the column sweep.
template <class T>
void SparseLU<T>::build_block_cache(const SparseCSC<T>& a,
                                    const std::vector<int>& changed_cols) {
    std::vector<char> in(n_, 0);
    for (const int kk : closure_) in[static_cast<size_t>(kk)] = 1;
    double minp = std::numeric_limits<double>::infinity();
    double maxp = -std::numeric_limits<double>::infinity();
    double best = 0.0;
    for (size_t kk = 0; kk < n_; ++kk) {
        if (in[kk]) continue;
        const double pmag = pivot_mag_[kk];
        if (pmag < minp) minp = pmag;
        if (pmag > maxp) maxp = pmag;
        const double s = col_abs_sum_[static_cast<size_t>(perm_[kk])];
        if (s > best) best = s;
    }
    other_min_pivot_ = minp;
    other_max_pivot_ = maxp;
    other_norm1_ = best;
    cache_valid_ = true;

    const size_t m = closure_.size();
    block_begin_ = n_;
    bool trailing = m > 0 && static_cast<size_t>(closure_.front()) == n_ - m;
    for (const int c : changed_cols)
        trailing = trailing &&
                   static_cast<size_t>(pinv_[static_cast<size_t>(
                       iperm_[static_cast<size_t>(c)])]) >= n_ - m;
    if (!trailing) return;
    block_begin_ = n_ - m;
    const int begin = static_cast<int>(block_begin_);
    const auto& cp = a.col_ptr();
    const auto& ri = a.row_idx();
    block_arow_ptr_.assign(m + 1, 0);
    block_prod_ptr_.assign(m + 1, 0);
    block_uq_.assign(m, 0);
    block_arow_.clear();
    block_prod_.clear();
    for (size_t b = 0; b < m; ++b) {
        const size_t kk = block_begin_ + b;
        const auto j = static_cast<size_t>(perm_[kk]);
        for (int p = cp[j]; p < cp[j + 1]; ++p) {
            const int r = pinv_[static_cast<size_t>(
                iperm_[static_cast<size_t>(ri[static_cast<size_t>(p)])])];
            block_arow_.push_back(r >= begin ? r : -1);
        }
        block_arow_ptr_[b + 1] = static_cast<int>(block_arow_.size());
        const Column& ucol = u_[kk];
        size_t q = 0;
        for (; q + 1 < ucol.size() && ucol[q].row < begin; ++q) {
            const T xj = ucol[q].value;
            const Column& lj = l_[static_cast<size_t>(ucol[q].row)];
            for (size_t r = 1; r < lj.size(); ++r)
                if (lj[r].row >= begin) block_prod_.push_back({lj[r].row, lj[r].value, xj});
        }
        block_uq_[b] = static_cast<int>(q);
        block_prod_ptr_[b + 1] = static_cast<int>(block_prod_.size());
    }
}

template <class T>
bool SparseLU<T>::refactor_partial(const SparseCSC<T>& a,
                                   const std::vector<int>& changed_cols) {
    SNIM_ASSERT(a.size() == n_, "refactor shape %zu != %zu", a.size(), n_);
    obs::ScopedTimer obs_timer(kRefactorPhase);
    if (!closure_valid_ || closure_key_ != changed_cols) build_closure(changed_cols);
    if (!cache_valid_) build_block_cache(a, changed_cols);
    const bool ok = block_begin_ < n_
                        ? refactor_trailing(a)
                        : refactor_columns(a, closure_.data(), closure_.size());
    if (!ok) return false;
    finish_partial();
    return true;
}

template <class T>
double SparseLU<T>::rcond_estimate() const {
    if (rcond_cache_ >= 0.0) return rcond_cache_;
    rcond_cache_ = rcond_from_norm1<T>(*this, n_, a_norm1_);
    stats_.rcond = rcond_cache_;
    obs::record_value(kRcond, rcond_cache_);
    return rcond_cache_;
}

template <class T>
void SparseLU<T>::solve_into(const std::vector<T>& b, std::vector<T>& out,
                             std::vector<T>& scratch) const {
    SNIM_ASSERT(b.size() == n_, "rhs size %zu != %zu", b.size(), n_);
    obs::ScopedTimer obs_timer(kSolvePhase);
    scratch.resize(n_); // every slot is written by the permute-in below
    std::vector<T>& x = scratch;
    for (size_t i = 0; i < n_; ++i)
        x[static_cast<size_t>(pinv_[i])] = b[static_cast<size_t>(perm_[i])];
    // L y = Pb (unit lower, diagonal first in each column).
    for (size_t k = 0; k < n_; ++k) {
        const T xk = x[k];
        if (xk == T{}) continue;
        const Column& col = l_[k];
        for (size_t q = 1; q < col.size(); ++q)
            x[static_cast<size_t>(col[q].row)] -= col[q].value * xk;
    }
    // U x = y (diagonal last in each column).
    for (size_t kk = n_; kk-- > 0;) {
        const Column& col = u_[kk];
        const T diag = col.back().value;
        x[kk] /= diag;
        const T xk = x[kk];
        if (xk == T{}) continue;
        for (size_t q = 0; q + 1 < col.size(); ++q)
            x[static_cast<size_t>(col[q].row)] -= col[q].value * xk;
    }
    out.resize(n_);
    for (size_t j = 0; j < n_; ++j) out[static_cast<size_t>(perm_[j])] = x[j];
}

template <class T>
std::vector<T> SparseLU<T>::solve(const std::vector<T>& b) const {
    std::vector<T> out, scratch;
    solve_into(b, out, scratch);
    return out;
}

template <class T>
std::vector<T> SparseLU<T>::solve_transpose(const std::vector<T>& b) const {
    SNIM_ASSERT(b.size() == n_, "rhs size %zu != %zu", b.size(), n_);
    obs::ScopedTimer obs_timer(kSolvePhase);
    // A^T = (P^T L U)^T = U^T L^T P, so solve U^T y = b, L^T z = y, x = P^T z.
    // The min-degree permutation is symmetric, so transposing commutes with
    // it: permute b in, solve the permuted transpose, permute x back out.
    std::vector<T> x(n_);
    for (size_t j = 0; j < n_; ++j) x[j] = b[static_cast<size_t>(perm_[j])];
    // U^T y = b: forward substitution over columns of U used as rows.
    for (size_t k = 0; k < n_; ++k) {
        const Column& col = u_[k];
        T acc = x[k];
        for (size_t q = 0; q + 1 < col.size(); ++q)
            acc -= col[q].value * x[static_cast<size_t>(col[q].row)];
        x[k] = acc / col.back().value;
    }
    // L^T z = y: backward substitution.
    for (size_t kk = n_; kk-- > 0;) {
        const Column& col = l_[kk];
        T acc = x[kk];
        for (size_t q = 1; q < col.size(); ++q)
            acc -= col[q].value * x[static_cast<size_t>(col[q].row)];
        x[kk] = acc;
    }
    std::vector<T> out(n_);
    for (size_t i = 0; i < n_; ++i)
        out[static_cast<size_t>(perm_[i])] = x[static_cast<size_t>(pinv_[i])];
    return out;
}

template <class T>
size_t SparseLU<T>::nnz() const {
    size_t total = 0;
    for (const auto& c : l_) total += c.size();
    for (const auto& c : u_) total += c.size();
    return total;
}

template <class T>
void ReusableLU<T>::full_factor(const SparseCSC<T>& a, const std::vector<int>* last_cols) {
    lu_.reset(); // a throwing factorization must leave the cache empty, not stale
    lu_ = std::make_unique<SparseLU<T>>(a, opt_.pivot_tol, last_cols);
    ref_min_pivot_ = lu_->factor_stats().min_pivot;
    pattern_cp_ = a.col_ptr();
    pattern_ri_ = a.row_idx();
}

template <class T>
void ReusableLU<T>::factor(const SparseCSC<T>& a, const RefactorHint& hint) {
    const auto adopt_key = [&] {
        hint_key_[0] = hint.key[0];
        hint_key_[1] = hint.key[1];
        hint_key_[2] = hint.key[2];
    };
    // A matching nonzero key attests that the held factors come from a
    // matrix with `a`'s pattern that is value-identical to it outside
    // changed_cols x changed_cols (see RefactorHint), so the pattern check
    // is skipped and the partial path may run.  Anything else (key change,
    // zero key) compares patterns and pays for the full numeric refactor.
    const bool same_key = (hint.key[0] | hint.key[1] | hint.key[2]) != 0 &&
                          hint.key[0] == hint_key_[0] &&
                          hint.key[1] == hint_key_[1] && hint.key[2] == hint_key_[2];
    if (!lu_ || (!same_key && (a.col_ptr() != pattern_cp_ || a.row_idx() != pattern_ri_))) {
        full_factor(a, hint.changed_cols);
        adopt_key();
        return;
    }
    // Queried first and unconditionally, so firing positions are a pure
    // function of how many reuse opportunities the run has seen.
    const bool forced = fault::fires("numeric.lu.repivot");
    obs::count(kRefactors);
    const bool partial_ok = same_key && hint.changed_cols != nullptr;
    bool ok;
    if (!forced && partial_ok) {
        ok = lu_->refactor_partial(a, *hint.changed_cols);
        if (ok) obs::count(kPartialRefactors);
    } else {
        ok = !forced && lu_->refactor(a);
    }
    if (ok && lu_->factor_stats().min_pivot >= opt_.repivot_tol * ref_min_pivot_) {
        adopt_key();
        obs::count(kSymbolicReuse);
        return;
    }
    // Guard tripped (pivot degraded / exact zero / forced): the cached pivot
    // sequence is stale — pay for one full re-pivoting factorization, which
    // also refreshes the health reference.
    obs::count(kRepivotFallbacks);
    full_factor(a, hint.changed_cols);
    adopt_key();
}

template class SparseLU<double>;
template class SparseLU<std::complex<double>>;
template class ReusableLU<double>;

} // namespace snim
