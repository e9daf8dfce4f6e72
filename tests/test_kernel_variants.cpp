// Kernel-variant conformance: every ISA arm of the GEMM dispatcher obeys
// the same contracts.
//
// The dispatcher compiles a portable 4×4 tile plus AVX2 (6×8) and
// AVX-512 (12×8/8×8) arms, each with its GEMV kernels, and picks at
// runtime. This suite forces each variant the host supports via
// set_kernel_variant() and re-asserts the kernel-layer contracts per
// variant:
//   * correctness against the reference triple loop, all transpose
//     combinations, alpha/beta cases;
//   * every route (narrow-n, small-m and wide-flat GEMV, tiles) equal bit
//     for bit to the per-element accumulation chain it must reproduce;
//   * pool-sharded == serial, bit for bit;
//   * gemm_rowstable's scalar-vs-batch agreement — any row sub-batch
//     (down to single rows) reproduces the full product's bits;
//   * cross-variant agreement to rounding tolerance.
// ctest runs this as part of the `kernel` label; the full test_gemm suite
// additionally runs once per variant via XBARSEC_FORCE_KERNEL (see
// CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "xbarsec/common/error.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/gemm.hpp"
#include "xbarsec/tensor/ops.hpp"

namespace xbarsec::tensor {
namespace {

/// Restores the entry state on scope exit so a forced variant never leaks
/// into other tests in this binary.
class VariantGuard {
public:
    VariantGuard() : saved_(forced_kernel_variant()) {}
    ~VariantGuard() { set_kernel_variant(saved_); }

private:
    KernelVariant saved_;
};

std::vector<KernelVariant> available_variants() {
    std::vector<KernelVariant> out{KernelVariant::Portable};
    if (kernel_variant_available(KernelVariant::Avx2)) out.push_back(KernelVariant::Avx2);
    if (kernel_variant_available(KernelVariant::Avx512)) out.push_back(KernelVariant::Avx512);
    return out;
}

Matrix reference_matmul(const Matrix& A, const Matrix& B) {
    Matrix C(A.rows(), B.cols(), 0.0);
    for (std::size_t i = 0; i < A.rows(); ++i)
        for (std::size_t k = 0; k < A.cols(); ++k)
            for (std::size_t j = 0; j < B.cols(); ++j) C(i, j) += A(i, k) * B(k, j);
    return C;
}

TEST(KernelVariants, NamesRoundTripAndParseRejectsUnknown) {
    for (const KernelVariant v : {KernelVariant::Auto, KernelVariant::Portable,
                                  KernelVariant::Avx2, KernelVariant::Avx512}) {
        EXPECT_EQ(parse_kernel_variant(to_string(v)), v);
    }
    EXPECT_THROW(parse_kernel_variant("sse9"), ConfigError);
    EXPECT_THROW(parse_kernel_variant(""), ConfigError);
}

TEST(KernelVariants, ForcingAnUnavailableVariantThrows) {
    VariantGuard guard;
    for (const KernelVariant v : {KernelVariant::Avx2, KernelVariant::Avx512}) {
        if (!kernel_variant_available(v)) {
            EXPECT_THROW(set_kernel_variant(v), ConfigError) << to_string(v);
        }
    }
    // Portable and Auto are always forceable.
    set_kernel_variant(KernelVariant::Portable);
    EXPECT_EQ(forced_kernel_variant(), KernelVariant::Portable);
    set_kernel_variant(KernelVariant::Auto);
    EXPECT_EQ(forced_kernel_variant(), KernelVariant::Auto);
}

TEST(KernelVariants, EveryVariantMatchesReferenceAcrossShapesAndOps) {
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(41);
        // Shapes spanning every dispatch path: sub-tile, single full tile,
        // multiple k-blocks, ragged tails, the paper's 10-class heads, and
        // rows past every MR geometry (4/6/8/12).
        const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
            {1, 1, 1}, {3, 5, 7},  {13, 300, 10}, {33, 64, 33},
            {12, 7, 8}, {65, 257, 19}, {10, 784, 12},
        };
        for (const auto& [m, k, n] : shapes) {
            for (const Op opA : {Op::None, Op::Transpose}) {
                for (const Op opB : {Op::None, Op::Transpose}) {
                    const Matrix A = opA == Op::None ? Matrix::random_normal(rng, m, k)
                                                     : Matrix::random_normal(rng, k, m);
                    const Matrix B = opB == Op::None ? Matrix::random_normal(rng, k, n)
                                                     : Matrix::random_normal(rng, n, k);
                    const Matrix C0 = Matrix::random_normal(rng, m, n);
                    for (const auto& [alpha, beta] :
                         {std::pair{1.0, 0.0}, {2.0, 1.0}, {-0.5, 0.25}}) {
                        Matrix C = C0;
                        gemm(alpha, A, opA, B, opB, beta, C);
                        const Matrix Aeff = opA == Op::None ? A : A.transposed();
                        const Matrix Beff = opB == Op::None ? B : B.transposed();
                        Matrix expected = reference_matmul(Aeff, Beff);
                        for (std::size_t i = 0; i < m; ++i) {
                            for (std::size_t j = 0; j < n; ++j) {
                                ASSERT_NEAR(C(i, j), alpha * expected(i, j) + beta * C0(i, j),
                                            1e-9)
                                    << to_string(v) << " m=" << m << " k=" << k << " n=" << n;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelVariants, EveryVariantIsPoolPartitionBitExact) {
    VariantGuard guard;
    ThreadPool pool(3);
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(43);
        const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
            {256, 300, 100}, {197, 64, 129}, {512, 784, 10},
        };
        for (const auto& [m, k, n] : shapes) {
            const Matrix A = Matrix::random_normal(rng, m, k);
            const Matrix B = Matrix::random_normal(rng, k, n);
            Matrix serial(m, n, 0.0), pooled(m, n, 0.0);
            gemm(1.0, A, Op::None, B, Op::None, 0.0, serial);
            gemm(1.0, A, Op::None, B, Op::None, 0.0, pooled, &pool);
            ASSERT_EQ(serial, pooled) << to_string(v) << " m=" << m << " k=" << k << " n=" << n;
        }
    }
}

TEST(KernelVariants, ScalarVsBatchAgreementPerVariant) {
    // The crossbar's reproducibility contract: querying row-by-row (the
    // scalar path) must reproduce the batched product bit for bit under
    // every variant. gemm_rowstable carries that contract; single-row
    // sub-batches are exactly the scalar case.
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(47);
        const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
            {64, 784, 10},  // batched-inference shape
            {37, 33, 100},  // ragged, wide outputs
            {25, 8, 8},     // one full AVX-512 strip
        };
        for (const auto& [m, k, n] : shapes) {
            const Matrix A = Matrix::random_normal(rng, m, k);
            const Matrix B = Matrix::random_normal(rng, k, n);
            Matrix full(m, n, 0.0);
            gemm_rowstable(1.0, A, Op::None, B, Op::None, 0.0, full);
            for (std::size_t r = 0; r < m; ++r) {
                Matrix row(1, k);
                for (std::size_t c = 0; c < k; ++c) row(0, c) = A(r, c);
                Matrix out(1, n, 0.0);
                gemm_rowstable(1.0, row, Op::None, B, Op::None, 0.0, out);
                for (std::size_t j = 0; j < n; ++j) {
                    ASSERT_EQ(out(0, j), full(r, j))
                        << to_string(v) << " row " << r << " m=" << m << " n=" << n;
                }
            }
        }
    }
}

/// Rows [r0, r0 + m) of `M`.
Matrix rows_of(const Matrix& M, std::size_t r0, std::size_t m) {
    Matrix out(m, M.cols());
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < M.cols(); ++c) out(r, c) = M(r0 + r, c);
    return out;
}

TEST(KernelVariants, SmallRowGemvMatchesTilesBitForBit) {
    // A product of a few rows with both operands untransposed runs on the
    // small-m GEMV; a 16-row batch on the narrow-n GEMV (n ≤ 16) or the
    // packed register tiles (n = 17). Every route reproduces a tile's
    // accumulation chain, so a small sub-batch equals the same rows inside
    // the batch bit for bit, on every arm. Shapes cover 4- and 8-lane
    // column tails, k-block edges (kBlockK = 256) and the alpha/beta paths.
    VariantGuard guard;
    constexpr std::size_t kBatch = 16;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(61);
        for (const std::size_t k : {1, 255, 256, 257, 784}) {
            for (const std::size_t n : {1, 3, 4, 7, 8, 9, 10, 17}) {
                const Matrix A = Matrix::random_normal(rng, kBatch, k);
                const Matrix B = Matrix::random_normal(rng, k, n);
                const Matrix C0 = Matrix::random_normal(rng, kBatch, n);
                for (const double alpha : {1.0, -0.5}) {
                    for (const double beta : {0.0, 1.0, 2.5}) {
                        Matrix full = C0;
                        gemm_rowstable(alpha, A, Op::None, B, Op::None, beta, full);
                        for (const std::size_t m : {1, 2, 3, 4, 5, 7, 8}) {
                            for (const std::size_t r0 : {std::size_t{0}, kBatch - m}) {
                                Matrix sub = rows_of(C0, r0, m);
                                gemm_rowstable(alpha, rows_of(A, r0, m), Op::None, B, Op::None,
                                               beta, sub);
                                ASSERT_EQ(sub, rows_of(full, r0, m))
                                    << to_string(v) << " m=" << m << " r0=" << r0 << " k=" << k
                                    << " n=" << n << " alpha=" << alpha << " beta=" << beta;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelVariants, SmallRowTransposedOperandsFallThroughBitForBit) {
    // With op(A) or op(B) transposed a small product leaves the small-m
    // GEMV: for n ≤ 16 it takes the narrow-n GEMV (strided op(A), or a
    // transposed copy of B), for n = 17 the tiles. The operands' values
    // are the same, so it must equal the small-m GEMV product of the
    // untransposed copies bit for bit.
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(67);
        for (const std::size_t m : {1, 2, 3, 4}) {
            for (const auto& [k, n] : {std::pair<std::size_t, std::size_t>{257, 10}, {784, 10},
                                       {255, 17}, {1, 3}}) {
                const Matrix A = Matrix::random_normal(rng, m, k);
                const Matrix B = Matrix::random_normal(rng, k, n);
                const Matrix C0 = Matrix::random_normal(rng, m, n);
                Matrix gemv = C0;
                gemm_rowstable(-0.5, A, Op::None, B, Op::None, 2.5, gemv);
                Matrix tiles_a = C0;
                gemm_rowstable(-0.5, A.transposed(), Op::Transpose, B, Op::None, 2.5, tiles_a);
                Matrix tiles_b = C0;
                gemm_rowstable(-0.5, A, Op::None, B.transposed(), Op::Transpose, 2.5, tiles_b);
                ASSERT_EQ(tiles_a, gemv) << to_string(v) << " opA=T m=" << m << " k=" << k
                                         << " n=" << n;
                ASSERT_EQ(tiles_b, gemv) << to_string(v) << " opB=T m=" << m << " k=" << k
                                         << " n=" << n;
            }
        }
    }
}

/// One k-block's partial sum, p ascending, unfused (the portable arm).
double block_sum_unfused(const double* a, const double* b, std::size_t len) {
    double acc = 0.0;
    for (std::size_t p = 0; p < len; ++p) acc = acc + a[p] * b[p];
    return acc;
}

/// The same sum fused (the FMA arms). Only called on FMA hosts; the target
/// makes std::fma one instruction rather than a libm call.
#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("fma")))
#endif
double block_sum_fused(const double* a, const double* b, std::size_t len) {
    double acc = 0.0;
    for (std::size_t p = 0; p < len; ++p) acc = std::fma(a[p], b[p], acc);
    return acc;
}

/// The accumulation chain every route must reproduce, written out per
/// element of C: beta applied as gemm applies it, then per kBlockK-deep
/// k-block a fresh accumulator summing p ascending — std::fma on the FMA
/// arms, an unfused multiply-add on the portable arm — added into C.
/// gemm()'s wide-and-flat shapes keep the alpha placement of the
/// transpose-swap they used to take: alpha scales op(B) instead of op(A).
Matrix chain_reference(const Matrix& opA, const Matrix& opB, const Matrix& C0, double alpha,
                       double beta, bool fused, bool wide) {
    constexpr std::size_t kBlock = 256;
    const std::size_t m = opA.rows(), k = opA.cols(), n = opB.cols();
    Matrix a = opA, bt = opB.transposed();  // bt: row j holds column j of op(B)
    if (wide) {
        bt *= alpha;
    } else {
        a *= alpha;
    }
    Matrix C(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        const double* arow = a.data() + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const double* bcol = bt.data() + j * k;
            double c = beta == 0.0 ? 0.0 : beta == 1.0 ? C0(i, j) : C0(i, j) * beta;
            for (std::size_t k0 = 0; k0 < k; k0 += kBlock) {
                const std::size_t len = std::min(kBlock, k - k0);
                c += fused ? block_sum_fused(arow + k0, bcol + k0, len)
                           : block_sum_unfused(arow + k0, bcol + k0, len);
            }
            C(i, j) = c;
        }
    }
    return C;
}

TEST(KernelVariants, NarrowAndWideRoutesMatchChainReference) {
    // Every route — the narrow-n GEMV (n ≤ 16, any m, either op), the
    // small-m GEMV, gemm()'s wide-and-flat GEMV and the tiles — against
    // the per-element chain, bit for bit, under every arm, serial and
    // pooled. With a transposed B the wide-and-flat shapes run swapped,
    // m becoming the lane count (1, 4 and 9 lanes take one, one and two
    // strips on AVX-512). The shapes straddle the GEMV cutoffs (m = 8/9,
    // n = 16/64), the k-block edges and the pool's sharding threshold
    // (4e6 flops); the (alpha, beta) pairs cover alpha = 1 (no scaling) and each
    // scaled alpha against every beta path (zero, one, scaled).
    VariantGuard guard;
    ThreadPool pool(3);
    const std::vector<KernelVariant> variants = available_variants();
    const bool fma_host = kernel_variant_available(KernelVariant::Avx2);
    const std::pair<double, double> scalings[] = {
        {1.0, 0.0}, {1.0, 2.5}, {-0.5, 0.0}, {-0.5, 1.0}, {1.0 / 3.0, 2.5}, {1.0 / 3.0, 1.0},
    };
    Rng rng(71);
    for (const std::size_t m : {1, 4, 9, 13, 32, 65, 257}) {
        for (const std::size_t n : {1, 3, 8, 10, 16, 64, 100, 784}) {
            if (n > 16 && m > 12) continue;  // wide outputs only where m is flat
            for (const std::size_t k : {1, 32, 255, 256, 257, 784}) {
                for (const Op opA : {Op::None, Op::Transpose}) {
                    for (const Op opB : {Op::None, Op::Transpose}) {
                        const Matrix effA = Matrix::random_normal(rng, m, k);
                        const Matrix effB = Matrix::random_normal(rng, k, n);
                        const Matrix A = opA == Op::None ? effA : effA.transposed();
                        const Matrix B = opB == Op::None ? effB : effB.transposed();
                        const Matrix C0 = Matrix::random_normal(rng, m, n);
                        const bool wide_shape = m <= 12 && n >= 64 && n >= 4 * m;
                        for (const auto& [alpha, beta] : scalings) {
                            Matrix expect[2][2];  // [fused][wide]
                            for (const bool fused : {false, true}) {
                                for (const bool wide : {false, true}) {
                                    if ((wide && !wide_shape) || (fused && !fma_host)) continue;
                                    expect[fused][wide] =
                                        chain_reference(effA, effB, C0, alpha, beta, fused, wide);
                                }
                            }
                            for (const KernelVariant v : variants) {
                                set_kernel_variant(v);
                                const bool fused = v != KernelVariant::Portable && fma_host;
                                for (const bool rowstable : {false, true}) {
                                    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr),
                                                          &pool}) {
                                        Matrix C = C0;
                                        if (rowstable) {
                                            gemm_rowstable(alpha, A, opA, B, opB, beta, C, p);
                                        } else {
                                            gemm(alpha, A, opA, B, opB, beta, C, p);
                                        }
                                        const bool wide = wide_shape && !rowstable;
                                        ASSERT_EQ(C, expect[fused][wide])
                                            << to_string(v) << (rowstable ? " rowstable" : "")
                                            << (p ? " pooled" : " serial") << " m=" << m
                                            << " n=" << n << " k=" << k
                                            << " opA=" << (opA == Op::None ? "N" : "T")
                                            << " opB=" << (opB == Op::None ? "N" : "T")
                                            << " alpha=" << alpha << " beta=" << beta;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelVariants, VariantsAgreeWithEachOtherToRounding) {
    VariantGuard guard;
    const auto variants = available_variants();
    Rng rng(53);
    const Matrix A = Matrix::random_normal(rng, 40, 120);
    const Matrix B = Matrix::random_normal(rng, 120, 35);
    std::vector<Matrix> results;
    for (const KernelVariant v : variants) {
        set_kernel_variant(v);
        Matrix C(40, 35, 0.0);
        gemm(1.0, A, Op::None, B, Op::None, 0.0, C);
        results.push_back(std::move(C));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        for (std::size_t r = 0; r < 40; ++r) {
            for (std::size_t j = 0; j < 35; ++j) {
                ASSERT_NEAR(results[0](r, j), results[i](r, j), 1e-10)
                    << to_string(variants[i]) << " vs " << to_string(variants[0]);
            }
        }
    }
}

TEST(KernelVariants, MatvecAgreesWithGemmPerVariant) {
    // The BLAS-2 layer is a separate code path from the GEMM tiles; the
    // two must stay numerically interchangeable under every variant.
    VariantGuard guard;
    for (const KernelVariant v : available_variants()) {
        set_kernel_variant(v);
        Rng rng(59);
        const Matrix W = Matrix::random_normal(rng, 30, 90);
        const Matrix U = Matrix::random_normal(rng, 1, 90);
        Vector u(90);
        for (std::size_t i = 0; i < 90; ++i) u[i] = U(0, i);
        const Vector s = matvec(W, u);
        Matrix S(1, 30, 0.0);
        gemm(1.0, U, Op::None, W, Op::Transpose, 0.0, S);
        for (std::size_t i = 0; i < 30; ++i) {
            ASSERT_NEAR(s[i], S(0, i), 1e-10) << to_string(v) << " i=" << i;
        }
    }
}

}  // namespace
}  // namespace xbarsec::tensor
