#include "numeric/sparse.hpp"

#include <algorithm>

namespace snim {

template <class T>
SparseCSC<T>::SparseCSC(const Triplets<T>& t) : n_(t.size()) {
    const auto& rows = t.rows();
    const auto& cols = t.cols();
    const auto& vals = t.values();
    const size_t nz = rows.size();

    // Count entries per column, then prefix-sum into column pointers.
    std::vector<int> count(n_ + 1, 0);
    for (size_t k = 0; k < nz; ++k) ++count[static_cast<size_t>(cols[k]) + 1];
    cp_.resize(n_ + 1, 0);
    for (size_t c = 0; c < n_; ++c) cp_[c + 1] = cp_[c] + count[c + 1];

    std::vector<int> next(cp_.begin(), cp_.end() - 1);
    std::vector<int> ri(nz);
    std::vector<T> vx(nz);
    for (size_t k = 0; k < nz; ++k) {
        const int p = next[static_cast<size_t>(cols[k])]++;
        ri[static_cast<size_t>(p)] = rows[k];
        vx[static_cast<size_t>(p)] = vals[k];
    }

    // Sort each column by row and merge duplicates.
    ri_.reserve(nz);
    vx_.reserve(nz);
    std::vector<int> new_cp(n_ + 1, 0);
    std::vector<std::pair<int, T>> col;
    for (size_t c = 0; c < n_; ++c) {
        col.clear();
        for (int p = cp_[c]; p < cp_[c + 1]; ++p)
            col.emplace_back(ri[static_cast<size_t>(p)], vx[static_cast<size_t>(p)]);
        // stable: duplicate (row,col) entries must merge in insertion order so
        // a triplet-built matrix is bit-identical to the Stamper's compiled
        // scatter path, which accumulates duplicates in stamp-sequence order.
        std::stable_sort(col.begin(), col.end(),
                         [](const auto& a, const auto& b) { return a.first < b.first; });
        for (size_t k = 0; k < col.size(); ++k) {
            if (k > 0 && col[k - 1].first == col[k].first) {
                vx_.back() += col[k].second;
            } else {
                ri_.push_back(col[k].first);
                vx_.push_back(col[k].second);
            }
        }
        new_cp[c + 1] = static_cast<int>(ri_.size());
    }
    cp_ = std::move(new_cp);
}

template <class T>
std::vector<T> SparseCSC<T>::multiply(const std::vector<T>& x) const {
    std::vector<T> y;
    multiply_into(x, y);
    return y;
}

template <class T>
void SparseCSC<T>::multiply_into(const std::vector<T>& x, std::vector<T>& y) const {
    SNIM_ASSERT(x.size() == n_, "matvec shape mismatch");
    y.assign(n_, T{});
    for (size_t c = 0; c < n_; ++c) {
        const T xc = x[c];
        if (xc == T{}) continue;
        for (int p = cp_[c]; p < cp_[c + 1]; ++p)
            y[static_cast<size_t>(ri_[static_cast<size_t>(p)])] +=
                vx_[static_cast<size_t>(p)] * xc;
    }
}

template <class T>
DenseMatrix<T> SparseCSC<T>::to_dense() const {
    DenseMatrix<T> m(n_, n_);
    for (size_t c = 0; c < n_; ++c)
        for (int p = cp_[c]; p < cp_[c + 1]; ++p)
            m(static_cast<size_t>(ri_[static_cast<size_t>(p)]), c) +=
                vx_[static_cast<size_t>(p)];
    return m;
}

template class SparseCSC<double>;
template class SparseCSC<std::complex<double>>;

} // namespace snim
