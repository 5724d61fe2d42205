// Sparse matrix support: triplet assembly and compressed-sparse-column
// storage.  MNA stamps accumulate into Triplets; solvers consume the CSC.
#pragma once

#include <complex>
#include <vector>

#include "numeric/dense.hpp"

namespace snim {

/// Coordinate-format accumulator.  Duplicate (row,col) entries sum, which is
/// exactly the MNA stamping semantics.
template <class T>
class Triplets {
public:
    Triplets() = default;
    explicit Triplets(size_t n) : n_(n) {}

    void resize(size_t n) { n_ = n; }
    size_t size() const { return n_; }
    size_t entry_count() const { return rows_.size(); }

    void add(size_t row, size_t col, T value) {
        SNIM_ASSERT(row < n_ && col < n_, "triplet (%zu,%zu) out of %zu", row, col, n_);
        if (!keep_zeros_ && value == T{}) return;
        rows_.push_back(static_cast<int>(row));
        cols_.push_back(static_cast<int>(col));
        vals_.push_back(value);
    }

    /// Record exact-zero entries instead of dropping them.  Repeated-assembly
    /// consumers (the Stamper's compiled-CSC mode, reusable LU) need the
    /// *structural* pattern of the stamp sequence: a position that happens to
    /// evaluate to zero this pass can be nonzero on the next one.
    void set_keep_zeros(bool keep) { keep_zeros_ = keep; }

    void clear() {
        rows_.clear();
        cols_.clear();
        vals_.clear();
    }

    const std::vector<int>& rows() const { return rows_; }
    const std::vector<int>& cols() const { return cols_; }
    const std::vector<T>& values() const { return vals_; }

    DenseMatrix<T> to_dense() const {
        DenseMatrix<T> m(n_, n_);
        for (size_t k = 0; k < rows_.size(); ++k)
            m(static_cast<size_t>(rows_[k]), static_cast<size_t>(cols_[k])) += vals_[k];
        return m;
    }

private:
    size_t n_ = 0;
    bool keep_zeros_ = false;
    std::vector<int> rows_, cols_;
    std::vector<T> vals_;
};

/// Compressed sparse column matrix (square), duplicates summed.
template <class T>
class SparseCSC {
public:
    SparseCSC() = default;
    explicit SparseCSC(const Triplets<T>& t);

    size_t size() const { return n_; }
    size_t nnz() const { return ri_.size(); }

    /// Column pointer array, length n+1.
    const std::vector<int>& col_ptr() const { return cp_; }
    /// Row indices per entry.
    const std::vector<int>& row_idx() const { return ri_; }
    const std::vector<T>& values() const { return vx_; }
    /// Mutable value array for in-place numeric reassembly on a fixed
    /// pattern (the Stamper's compiled-CSC scatter path).  Callers must not
    /// change the array's length.
    std::vector<T>& values_mut() { return vx_; }

    std::vector<T> multiply(const std::vector<T>& x) const;
    /// multiply() into `y` (resized to n), for loops that reuse the buffer.
    void multiply_into(const std::vector<T>& x, std::vector<T>& y) const;
    DenseMatrix<T> to_dense() const;

private:
    size_t n_ = 0;
    std::vector<int> cp_;
    std::vector<int> ri_;
    std::vector<T> vx_;
};

extern template class SparseCSC<double>;
extern template class SparseCSC<std::complex<double>>;

} // namespace snim
