// Dense matrix with LU factorisation (partial pivoting).
//
// Used for small systems (device companion models, macromodel ports, tests)
// and as the reference solver the sparse LU is validated against.
#pragma once

#include <algorithm>
#include <complex>
#include <vector>

#include "util/error.hpp"

namespace snim {

template <class T>
class DenseMatrix {
public:
    DenseMatrix() = default;
    DenseMatrix(size_t rows, size_t cols, T init = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, init) {}

    static DenseMatrix identity(size_t n) {
        DenseMatrix m(n, n);
        for (size_t i = 0; i < n; ++i) m(i, i) = T{1};
        return m;
    }

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    /// Contiguous row-major storage, for bulk operations on the whole matrix.
    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }

    /// Sets every element to `v` in one pass over the flat storage.
    void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

    T& operator()(size_t r, size_t c) {
        SNIM_ASSERT(r < rows_ && c < cols_, "index (%zu,%zu) out of (%zu,%zu)", r, c,
                    rows_, cols_);
        return data_[r * cols_ + c];
    }
    const T& operator()(size_t r, size_t c) const {
        SNIM_ASSERT(r < rows_ && c < cols_, "index (%zu,%zu) out of (%zu,%zu)", r, c,
                    rows_, cols_);
        return data_[r * cols_ + c];
    }

    DenseMatrix operator*(const DenseMatrix& rhs) const {
        SNIM_ASSERT(cols_ == rhs.rows_, "matmul shape mismatch");
        DenseMatrix out(rows_, rhs.cols_);
        for (size_t i = 0; i < rows_; ++i)
            for (size_t k = 0; k < cols_; ++k) {
                const T a = (*this)(i, k);
                if (a == T{}) continue;
                for (size_t j = 0; j < rhs.cols_; ++j) out(i, j) += a * rhs(k, j);
            }
        return out;
    }

    DenseMatrix operator+(const DenseMatrix& rhs) const {
        SNIM_ASSERT(rows_ == rhs.rows_ && cols_ == rhs.cols_, "add shape mismatch");
        DenseMatrix out = *this;
        for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
        return out;
    }

    DenseMatrix operator-(const DenseMatrix& rhs) const {
        SNIM_ASSERT(rows_ == rhs.rows_ && cols_ == rhs.cols_, "sub shape mismatch");
        DenseMatrix out = *this;
        for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
        return out;
    }

    DenseMatrix transposed() const {
        DenseMatrix out(cols_, rows_);
        for (size_t i = 0; i < rows_; ++i)
            for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
        return out;
    }

    std::vector<T> multiply(const std::vector<T>& x) const {
        SNIM_ASSERT(x.size() == cols_, "matvec shape mismatch");
        std::vector<T> y(rows_, T{});
        for (size_t i = 0; i < rows_; ++i)
            for (size_t j = 0; j < cols_; ++j) y[i] += (*this)(i, j) * x[j];
        return y;
    }

private:
    size_t rows_ = 0, cols_ = 0;
    std::vector<T> data_;
};

/// LU factorisation with partial pivoting; throws snim::Error when singular.
template <class T>
class DenseLU {
public:
    explicit DenseLU(DenseMatrix<T> a);

    std::vector<T> solve(std::vector<T> b) const;
    DenseMatrix<T> solve(const DenseMatrix<T>& b) const;
    /// Solves A^T x = b on the same factors (U^T then L^T, permute out).
    std::vector<T> solve_transpose(const std::vector<T>& b) const;
    size_t size() const { return lu_.rows(); }

    /// Reciprocal 1-norm condition estimate, the dense counterpart of
    /// SparseLU::rcond_estimate() (same Hager/Higham estimator, cached per
    /// factorization) so both solve paths report conditioning uniformly.
    double rcond_estimate() const;

    /// ||A||_1 of the matrix this factorization was built from.
    double norm1() const { return a_norm1_; }

private:
    DenseMatrix<T> lu_;
    std::vector<size_t> perm_;
    double a_norm1_ = 0.0;
    mutable double rcond_cache_ = -1.0; // < 0: not yet estimated
};

extern template class DenseLU<double>;
extern template class DenseLU<std::complex<double>>;

/// Convenience: solves a*x = b once.
template <class T>
std::vector<T> dense_solve(const DenseMatrix<T>& a, const std::vector<T>& b) {
    return DenseLU<T>(a).solve(b);
}

} // namespace snim
