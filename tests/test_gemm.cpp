// GEMM correctness against a reference triple loop, across shapes,
// transpose combinations, and alpha/beta cases — plus bit-for-bit
// equivalence of the ThreadPool-sharded kernel with the serial one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <tuple>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/gemm.hpp"

namespace xbarsec::tensor {
namespace {

Matrix reference_matmul(const Matrix& A, const Matrix& B) {
    Matrix C(A.rows(), B.cols(), 0.0);
    for (std::size_t i = 0; i < A.rows(); ++i)
        for (std::size_t k = 0; k < A.cols(); ++k)
            for (std::size_t j = 0; j < B.cols(); ++j) C(i, j) += A(i, k) * B(k, j);
    return C;
}

void expect_near(const Matrix& a, const Matrix& b, double tol = 1e-10) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) EXPECT_NEAR(a(i, j), b(i, j), tol);
}

TEST(Gemm, SmallKnownProduct) {
    const Matrix A{{1, 2}, {3, 4}};
    const Matrix B{{5, 6}, {7, 8}};
    const Matrix C = matmul(A, B);
    EXPECT_DOUBLE_EQ(C(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(C(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(C(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(C(1, 1), 50.0);
}

TEST(Gemm, AlphaBetaSemantics) {
    const Matrix A{{1, 0}, {0, 1}};
    const Matrix B{{2, 0}, {0, 2}};
    Matrix C(2, 2, 1.0);
    gemm(3.0, A, Op::None, B, Op::None, 0.5, C);
    // C = 3·(A·B) + 0.5·ones = 6·I + 0.5.
    EXPECT_DOUBLE_EQ(C(0, 0), 6.5);
    EXPECT_DOUBLE_EQ(C(0, 1), 0.5);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
    const Matrix A{{1}}, B{{1}};
    Matrix C(1, 1, std::nan(""));
    gemm(1.0, A, Op::None, B, Op::None, 0.0, C);
    EXPECT_DOUBLE_EQ(C(0, 0), 1.0);
}

TEST(Gemm, ShapeMismatchThrows) {
    const Matrix A(2, 3), B(2, 2);
    Matrix C(2, 2);
    EXPECT_THROW(gemm(1.0, A, Op::None, B, Op::None, 0.0, C), ContractViolation);
    Matrix D(3, 3);
    const Matrix B2(3, 2);
    EXPECT_THROW(gemm(1.0, A, Op::None, B2, Op::None, 0.0, D), ContractViolation);
}

using GemmCase = std::tuple<std::size_t, std::size_t, std::size_t, Op, Op>;

class GemmProperty : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmProperty, MatchesReferenceForAllTransposeCombos) {
    const auto [m, k, n, opA, opB] = GetParam();
    Rng rng(m * 7919 + k * 131 + n + static_cast<std::size_t>(opA) * 17 +
            static_cast<std::size_t>(opB));
    // Build operands so op(A) is m×k, op(B) is k×n.
    const Matrix A = opA == Op::None ? Matrix::random_normal(rng, m, k)
                                     : Matrix::random_normal(rng, k, m);
    const Matrix B = opB == Op::None ? Matrix::random_normal(rng, k, n)
                                     : Matrix::random_normal(rng, n, k);
    const Matrix got = matmul(A, opA, B, opB);
    const Matrix Aeff = opA == Op::None ? A : A.transposed();
    const Matrix Beff = opB == Op::None ? B : B.transposed();
    expect_near(got, reference_matmul(Aeff, Beff));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndOps, GemmProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 5, 32, 65),
                       ::testing::Values<std::size_t>(1, 7, 64, 300),
                       ::testing::Values<std::size_t>(1, 10, 33),
                       ::testing::Values(Op::None, Op::Transpose),
                       ::testing::Values(Op::None, Op::Transpose)));

TEST(Gemm, AccumulatesWithBetaOne) {
    Rng rng(3);
    const Matrix A = Matrix::random_normal(rng, 4, 6);
    const Matrix B = Matrix::random_normal(rng, 6, 5);
    Matrix C(4, 5, 0.0);
    gemm(1.0, A, Op::None, B, Op::None, 0.0, C);
    gemm(1.0, A, Op::None, B, Op::None, 1.0, C);  // C = 2·A·B
    Matrix expected = reference_matmul(A, B);
    expected *= 2.0;
    expect_near(C, expected);
}

// ---- alpha/beta property sweep across every transpose combination ----------

class GemmAlphaBetaProperty : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmAlphaBetaProperty, GeneralUpdateMatchesReference) {
    const auto [m, k, n, opA, opB] = GetParam();
    Rng rng(m * 131 + k * 17 + n * 3 + static_cast<std::size_t>(opA) * 7 +
            static_cast<std::size_t>(opB));
    const Matrix A = opA == Op::None ? Matrix::random_normal(rng, m, k)
                                     : Matrix::random_normal(rng, k, m);
    const Matrix B = opB == Op::None ? Matrix::random_normal(rng, k, n)
                                     : Matrix::random_normal(rng, n, k);
    const Matrix C0 = Matrix::random_normal(rng, m, n);

    for (const auto& [alpha, beta] :
         {std::pair{1.0, 0.0}, {-1.0, 1.0}, {0.75, 0.5}, {2.5, -0.25}, {0.0, 0.5}}) {
        Matrix C = C0;
        gemm(alpha, A, opA, B, opB, beta, C);

        const Matrix Aeff = opA == Op::None ? A : A.transposed();
        const Matrix Beff = opB == Op::None ? B : B.transposed();
        Matrix expected = reference_matmul(Aeff, Beff);
        expected *= alpha;
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j) expected(i, j) += beta * C0(i, j);
        expect_near(C, expected, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndOps, GemmAlphaBetaProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 6, 10, 70),
                       ::testing::Values<std::size_t>(1, 13, 256),
                       ::testing::Values<std::size_t>(1, 10, 97),
                       ::testing::Values(Op::None, Op::Transpose),
                       ::testing::Values(Op::None, Op::Transpose)));

// ---- parallel kernel: bit-for-bit with serial -------------------------------

TEST(Gemm, ParallelMatchesSerialBitForBit) {
    ThreadPool pool(3);
    Rng rng(17);
    // Shapes chosen to exercise every dispatch path: the sharded row-panel
    // path (large m), gemm()'s wide-flat route (column panels), tail
    // panels (m % panel != 0), and every transpose combination.
    const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
        {256, 300, 100},  // sharded, multiple k-blocks
        {197, 64, 129},   // sharded with ragged row/strip tails
        {10, 256, 784},   // wide-flat route, sharded over column panels
        {512, 784, 10},   // the batched-inference shape
    };
    for (const auto& [m, k, n] : shapes) {
        for (const Op opA : {Op::None, Op::Transpose}) {
            for (const Op opB : {Op::None, Op::Transpose}) {
                const Matrix A = opA == Op::None ? Matrix::random_normal(rng, m, k)
                                                 : Matrix::random_normal(rng, k, m);
                const Matrix B = opB == Op::None ? Matrix::random_normal(rng, k, n)
                                                 : Matrix::random_normal(rng, n, k);
                Matrix serial(m, n, 0.0), pooled(m, n, 0.0);
                gemm(1.25, A, opA, B, opB, 0.0, serial);
                gemm(1.25, A, opA, B, opB, 0.0, pooled, &pool);
                ASSERT_EQ(serial, pooled) << "m=" << m << " k=" << k << " n=" << n;
            }
        }
    }
}

TEST(Gemm, RowStableVariantIsBitExactAcrossRowPartitions) {
    // gemm_rowstable's contract: a row of C depends only on (k, n) and
    // that row of A — so computing any sub-range of rows reproduces the
    // full product's bits. Shapes include n >= 64 outputs, where plain
    // gemm() would send small batches down its wide-flat route (alpha
    // on op(B)'s side) and break this.
    ThreadPool pool(4);
    Rng rng(31);
    const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
        {256, 784, 10},   // the batched-inference shape
        {256, 8, 64},     // many outputs: wide-flat territory for small m
        {100, 3072, 10},  // CIFAR-width inputs
        {97, 33, 100},    // ragged everything
    };
    for (const auto& [m, k, n] : shapes) {
        const Matrix A = Matrix::random_normal(rng, m, k);
        const Matrix B = Matrix::random_normal(rng, k, n);
        Matrix full(m, n, 0.0);
        gemm_rowstable(1.0, A, Op::None, B, Op::None, 0.0, full);
        Matrix pooled(m, n, 0.0);
        gemm_rowstable(1.0, A, Op::None, B, Op::None, 0.0, pooled, &pool);
        ASSERT_EQ(full, pooled) << "m=" << m << " k=" << k << " n=" << n;

        for (const std::size_t step : {std::size_t{1}, std::size_t{3}, std::size_t{37}}) {
            for (std::size_t lo = 0; lo < m; lo += step) {
                const std::size_t hi = std::min(lo + step, m);
                Matrix sub(hi - lo, k);
                for (std::size_t r = lo; r < hi; ++r) {
                    const auto src = A.row_span(r);
                    auto dst = sub.row_span(r - lo);
                    std::copy(src.begin(), src.end(), dst.begin());
                }
                Matrix part(hi - lo, n, 0.0);
                gemm_rowstable(1.0, sub, Op::None, B, Op::None, 0.0, part);
                for (std::size_t r = lo; r < hi; ++r) {
                    for (std::size_t j = 0; j < n; ++j) {
                        ASSERT_EQ(part(r - lo, j), full(r, j))
                            << "m=" << m << " n=" << n << " step=" << step << " row " << r;
                    }
                }
            }
        }
    }
}

TEST(Gemm, RowStableMatchesGemmNumerically) {
    // Same arithmetic, different dispatch: values agree to rounding.
    Rng rng(37);
    const Matrix A = Matrix::random_normal(rng, 8, 100);
    const Matrix B = Matrix::random_normal(rng, 100, 96);
    Matrix swapped(8, 96, 0.0), stable(8, 96, 0.0);
    gemm(1.0, A, Op::None, B, Op::None, 0.0, swapped);
    gemm_rowstable(1.0, A, Op::None, B, Op::None, 0.0, stable);
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 96; ++j) {
            EXPECT_NEAR(swapped(i, j), stable(i, j), 1e-10);
        }
    }
}

TEST(Gemm, ForcedVariantEnvIsHonored) {
    // CMake registers this whole binary once per available kernel variant
    // with XBARSEC_FORCE_KERNEL set (ctest -L kernel). When the variable
    // is present, the dispatcher must actually be running that arm — so a
    // mislabelled CI job can't silently test the wrong kernel.
    const char* forced = std::getenv("XBARSEC_FORCE_KERNEL");
    if (forced == nullptr || *forced == '\0') {
        GTEST_SKIP() << "XBARSEC_FORCE_KERNEL not set";
    }
    EXPECT_EQ(forced_kernel_variant(), parse_kernel_variant(forced));
    EXPECT_TRUE(kernel_variant_available(forced_kernel_variant()));
}

TEST(Gemm, ParallelRepeatsAreDeterministic) {
    ThreadPool pool(4);
    Rng rng(23);
    const Matrix A = Matrix::random_normal(rng, 300, 200);
    const Matrix B = Matrix::random_normal(rng, 200, 40);
    Matrix first(300, 40, 0.0);
    gemm(1.0, A, Op::None, B, Op::None, 0.0, first, &pool);
    for (int rep = 0; rep < 5; ++rep) {
        Matrix again(300, 40, 0.0);
        gemm(1.0, A, Op::None, B, Op::None, 0.0, again, &pool);
        ASSERT_EQ(first, again);
    }
}

}  // namespace
}  // namespace xbarsec::tensor
