#include "numeric/dense.hpp"

#include <cmath>

#include "numeric/condest.hpp"
#include "obs/trace.hpp"

namespace snim {

namespace {

// Telemetry handles (obs/registry.hpp), interned once per process.
const obs::Phase kFactorPhase("numeric/dense_lu_factor");
const obs::Counter kDenseBytes("numeric/dense_bytes");

template <class T>
double mag(const T& v) {
    return std::abs(v);
}
} // namespace

template <class T>
DenseLU<T>::DenseLU(DenseMatrix<T> a) : lu_(std::move(a)) {
    SNIM_ASSERT(lu_.rows() == lu_.cols(), "LU needs a square matrix, got %zux%zu",
                lu_.rows(), lu_.cols());
    obs::ScopedTimer obs_timer(kFactorPhase);
    const size_t n = lu_.rows();
    a_norm1_ = snim::norm1(lu_); // lu_ still holds A; factored in place below
    obs::count(kDenseBytes, n * n * sizeof(T) + n * sizeof(size_t));
    perm_.resize(n);
    for (size_t i = 0; i < n; ++i) perm_[i] = i;

    for (size_t k = 0; k < n; ++k) {
        size_t piv = k;
        double best = mag(lu_(k, k));
        for (size_t i = k + 1; i < n; ++i) {
            const double m = mag(lu_(i, k));
            if (m > best) {
                best = m;
                piv = i;
            }
        }
        if (best == 0.0) raise("dense LU: matrix singular at column %zu", k);
        if (piv != k) {
            for (size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
            std::swap(perm_[k], perm_[piv]);
        }
        const T pivot = lu_(k, k);
        for (size_t i = k + 1; i < n; ++i) {
            const T f = lu_(i, k) / pivot;
            lu_(i, k) = f;
            if (f == T{}) continue;
            for (size_t j = k + 1; j < n; ++j) lu_(i, j) -= f * lu_(k, j);
        }
    }
}

template <class T>
std::vector<T> DenseLU<T>::solve(std::vector<T> b) const {
    const size_t n = lu_.rows();
    SNIM_ASSERT(b.size() == n, "rhs size %zu != %zu", b.size(), n);
    std::vector<T> x(n);
    for (size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    // Forward substitution (unit lower).
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
    // Back substitution.
    for (size_t ii = n; ii-- > 0;) {
        for (size_t j = ii + 1; j < n; ++j) x[ii] -= lu_(ii, j) * x[j];
        x[ii] /= lu_(ii, ii);
    }
    return x;
}

template <class T>
std::vector<T> DenseLU<T>::solve_transpose(const std::vector<T>& b) const {
    const size_t n = lu_.rows();
    SNIM_ASSERT(b.size() == n, "rhs size %zu != %zu", b.size(), n);
    // A = P^T L U, so A^T x = b means U^T y = b, L^T z = y, x = P^T z.
    std::vector<T> x = b;
    // U^T y = b: forward substitution over U's rows used as columns.
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < i; ++j) x[i] -= lu_(j, i) * x[j];
        x[i] /= lu_(i, i);
    }
    // L^T z = y: back substitution (unit diagonal).
    for (size_t ii = n; ii-- > 0;)
        for (size_t j = ii + 1; j < n; ++j) x[ii] -= lu_(j, ii) * x[j];
    // Undo the row permutation: (P^T z)[perm_[i]] = z[i].
    std::vector<T> out(n);
    for (size_t i = 0; i < n; ++i) out[perm_[i]] = x[i];
    return out;
}

template <class T>
double DenseLU<T>::rcond_estimate() const {
    if (rcond_cache_ >= 0.0) return rcond_cache_;
    rcond_cache_ = rcond_from_norm1<T>(*this, lu_.rows(), a_norm1_);
    return rcond_cache_;
}

template <class T>
DenseMatrix<T> DenseLU<T>::solve(const DenseMatrix<T>& b) const {
    const size_t n = lu_.rows();
    SNIM_ASSERT(b.rows() == n, "rhs rows %zu != %zu", b.rows(), n);
    DenseMatrix<T> x(n, b.cols());
    std::vector<T> col(n);
    for (size_t c = 0; c < b.cols(); ++c) {
        for (size_t i = 0; i < n; ++i) col[i] = b(i, c);
        col = solve(std::move(col));
        for (size_t i = 0; i < n; ++i) x(i, c) = col[i];
    }
    return x;
}

template class DenseLU<double>;
template class DenseLU<std::complex<double>>;

} // namespace snim
