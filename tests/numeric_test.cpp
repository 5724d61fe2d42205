#include <gtest/gtest.h>

#include <complex>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/vecops.hpp"
#include "util/rng.hpp"

namespace snim {
namespace {

using Cplx = std::complex<double>;

TEST(DenseTest, IdentitySolve) {
    auto eye = DenseMatrix<double>::identity(4);
    std::vector<double> b{1, 2, 3, 4};
    auto x = dense_solve(eye, b);
    for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(DenseTest, KnownSystem) {
    DenseMatrix<double> a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    auto x = dense_solve(a, {5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseTest, PivotingHandlesZeroDiagonal) {
    // MNA-style: zero on the diagonal requires row exchange.
    DenseMatrix<double> a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    auto x = dense_solve(a, {3.0, 7.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseTest, SingularThrows) {
    DenseMatrix<double> a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_THROW(DenseLU<double>{a}, Error);
}

TEST(DenseTest, RandomRoundTrip) {
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + static_cast<size_t>(rng.uniform_int(1, 12));
        DenseMatrix<double> a(n, n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
        for (size_t i = 0; i < n; ++i) a(i, i) += 4.0; // well-conditioned
        std::vector<double> xref(n);
        for (auto& v : xref) v = rng.uniform(-2, 2);
        auto b = a.multiply(xref);
        auto x = dense_solve(a, b);
        EXPECT_LT(max_abs_diff(x, xref), 1e-9);
    }
}

TEST(DenseTest, ComplexSolve) {
    DenseMatrix<Cplx> a(2, 2);
    a(0, 0) = {1, 1};
    a(0, 1) = {0, 0};
    a(1, 0) = {0, 0};
    a(1, 1) = {0, 2};
    auto x = dense_solve<Cplx>(a, {{2, 0}, {4, 0}});
    EXPECT_NEAR(std::abs(x[0] - Cplx(1, -1)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x[1] - Cplx(0, -2)), 0.0, 1e-12);
}

TEST(DenseTest, MatrixOps) {
    DenseMatrix<double> a(2, 2), b(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    b = DenseMatrix<double>::identity(2);
    auto c = a * b;
    EXPECT_DOUBLE_EQ(c(1, 0), 3.0);
    auto d = a + a;
    EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
    auto e = a - a;
    EXPECT_DOUBLE_EQ(e(1, 1), 0.0);
    auto t = a.transposed();
    EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
}

TEST(SparseTest, TripletsSumDuplicates) {
    Triplets<double> t(3);
    t.add(0, 0, 1.0);
    t.add(0, 0, 2.0);
    t.add(2, 1, -1.0);
    SparseCSC<double> a(t);
    EXPECT_EQ(a.nnz(), 2u);
    auto d = a.to_dense();
    EXPECT_DOUBLE_EQ(d(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(d(2, 1), -1.0);
}

TEST(SparseTest, ZeroEntriesSkipped) {
    Triplets<double> t(2);
    t.add(0, 0, 0.0);
    EXPECT_EQ(t.entry_count(), 0u);
}

TEST(SparseTest, MultiplyMatchesDense) {
    Rng rng(3);
    Triplets<double> t(6);
    for (int k = 0; k < 25; ++k)
        t.add(static_cast<size_t>(rng.uniform_int(0, 5)),
              static_cast<size_t>(rng.uniform_int(0, 5)), rng.uniform(-1, 1));
    SparseCSC<double> a(t);
    std::vector<double> x(6);
    for (auto& v : x) v = rng.uniform(-1, 1);
    auto y1 = a.multiply(x);
    auto y2 = a.to_dense().multiply(x);
    EXPECT_LT(max_abs_diff(y1, y2), 1e-13);
}

TEST(SparseLUTest, SolvesDiagonal) {
    Triplets<double> t(3);
    t.add(0, 0, 2.0);
    t.add(1, 1, 4.0);
    t.add(2, 2, 8.0);
    SparseLU<double> lu(t);
    auto x = lu.solve({2.0, 4.0, 8.0});
    for (double v : x) EXPECT_NEAR(v, 1.0, 1e-14);
}

TEST(SparseLUTest, ZeroDiagonalNeedsPivot) {
    // Permutation matrix: only off-diagonal entries.
    Triplets<double> t(3);
    t.add(0, 1, 1.0);
    t.add(1, 2, 1.0);
    t.add(2, 0, 1.0);
    SparseLU<double> lu(t);
    auto x = lu.solve({10.0, 20.0, 30.0});
    EXPECT_NEAR(x[0], 30.0, 1e-14);
    EXPECT_NEAR(x[1], 10.0, 1e-14);
    EXPECT_NEAR(x[2], 20.0, 1e-14);
}

TEST(SparseLUTest, SingularThrows) {
    Triplets<double> t(2);
    t.add(0, 0, 1.0);
    t.add(1, 0, 1.0); // column 1 empty -> structurally singular
    EXPECT_THROW(SparseLU<double>{t}, Error);
}

TEST(SparseLUTest, RandomSparseMatchesDense) {
    Rng rng(17);
    for (int trial = 0; trial < 15; ++trial) {
        const size_t n = static_cast<size_t>(rng.uniform_int(5, 60));
        Triplets<double> t(n);
        for (size_t i = 0; i < n; ++i) t.add(i, i, 3.0 + rng.uniform(0, 1));
        const int extra = static_cast<int>(4 * n);
        for (int k = 0; k < extra; ++k)
            t.add(static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
                  static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
                  rng.uniform(-1, 1));
        std::vector<double> xref(n);
        for (auto& v : xref) v = rng.uniform(-1, 1);
        SparseCSC<double> a(t);
        auto b = a.multiply(xref);
        SparseLU<double> lu(a);
        auto x = lu.solve(b);
        EXPECT_LT(max_abs_diff(x, xref), 1e-8) << "n=" << n;
    }
}

TEST(SparseLUTest, TransposeSolve) {
    Rng rng(23);
    const size_t n = 30;
    Triplets<double> t(n);
    for (size_t i = 0; i < n; ++i) t.add(i, i, 4.0);
    for (int k = 0; k < 120; ++k)
        t.add(static_cast<size_t>(rng.uniform_int(0, 29)),
              static_cast<size_t>(rng.uniform_int(0, 29)), rng.uniform(-1, 1));
    SparseCSC<double> a(t);
    std::vector<double> xref(n);
    for (auto& v : xref) v = rng.uniform(-1, 1);
    // b = A^T x
    auto at = a.to_dense().transposed();
    auto b = at.multiply(xref);
    SparseLU<double> lu(a);
    auto x = lu.solve_transpose(b);
    EXPECT_LT(max_abs_diff(x, xref), 1e-9);
}

TEST(SparseLUTest, ComplexSystem) {
    Triplets<Cplx> t(2);
    t.add(0, 0, {1, 1});
    t.add(1, 1, {0, 2});
    t.add(0, 1, {0.5, 0});
    SparseLU<Cplx> lu(t);
    std::vector<Cplx> xref{{1, -1}, {2, 0}};
    SparseCSC<Cplx> a(t);
    auto b = a.multiply(xref);
    auto x = lu.solve(b);
    EXPECT_NEAR(std::abs(x[0] - xref[0]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x[1] - xref[1]), 0.0, 1e-12);
}

TEST(SparseLUTest, MnaLikeSaddlePoint) {
    // [ G  B ][v]   [0]
    // [ B' 0 ][i] = [V]  -- classic voltage-source MNA block with zero diag.
    Triplets<double> t(3);
    t.add(0, 0, 1e-3); // small conductance at node 0
    t.add(0, 2, 1.0);
    t.add(2, 0, 1.0);
    t.add(1, 1, 2e-3);
    t.add(0, 1, -1e-3);
    t.add(1, 0, -1e-3);
    SparseLU<double> lu(t);
    auto x = lu.solve({0.0, 0.0, 5.0});
    EXPECT_NEAR(x[0], 5.0, 1e-9); // node 0 pinned to 5 V
}

TEST(VecOpsTest, Basics) {
    std::vector<double> a{1, 2, 3}, b{4, 5, 6};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(norm_inf(std::vector<double>{-7.0, 2.0}), 7.0);
    axpy(2.0, a, b);
    EXPECT_DOUBLE_EQ(b[2], 12.0);
}

TEST(VecOpsTest, Linspace) {
    auto v = linspace(0.0, 1.0, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[2], 0.5);
    EXPECT_DOUBLE_EQ(v[4], 1.0);
}

TEST(VecOpsTest, Logspace) {
    auto v = logspace(1e6, 1e8, 3);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_NEAR(v[1], 1e7, 1.0);
    EXPECT_THROW(logspace(-1.0, 1.0, 3), Error);
}

// Both fields are size_t so the struct has no padding: gtest prints an
// unprintable param as its raw bytes, and that text names the test case.
struct SparseLuSizeCase {
    size_t n;
    size_t extra_per_row;
};

class SparseLuSweep : public ::testing::TestWithParam<SparseLuSizeCase> {};

TEST_P(SparseLuSweep, ResidualSmall) {
    const auto param = GetParam();
    Rng rng(1000 + param.n);
    Triplets<double> t(param.n);
    for (size_t i = 0; i < param.n; ++i) t.add(i, i, 5.0 + rng.uniform(0, 1));
    for (size_t i = 0; i < param.n; ++i)
        for (size_t k = 0; k < param.extra_per_row; ++k)
            t.add(i,
                  static_cast<size_t>(
                      rng.uniform_int(0, static_cast<int>(param.n) - 1)),
                  rng.uniform(-1, 1));
    SparseCSC<double> a(t);
    std::vector<double> xref(param.n);
    for (auto& v : xref) v = rng.uniform(-1, 1);
    auto b = a.multiply(xref);
    SparseLU<double> lu(a);
    auto x = lu.solve(b);
    EXPECT_LT(max_abs_diff(x, xref), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLuSweep,
                         ::testing::Values(SparseLuSizeCase{4, 1},
                                           SparseLuSizeCase{32, 3},
                                           SparseLuSizeCase{128, 4},
                                           SparseLuSizeCase{512, 5},
                                           SparseLuSizeCase{1024, 5}));

} // namespace
} // namespace snim
