#include "xbarsec/tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "xbarsec/common/arena.hpp"
#include "xbarsec/common/error.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace xbarsec::tensor {

namespace {

// ---- kernel geometry --------------------------------------------------------

/// Depth of the packed panels. One micro-panel of A (≤ 12 rows × kBlockK)
/// and one B strip (kBlockK × ≤ 8) sit comfortably in L1 while a tile runs.
constexpr std::size_t kBlockK = 256;

/// Rows per parallel task. Each C row accumulates its k-terms in p-ascending
/// order in its own registers, independent of which rows share a tile, so
/// any row partition is bit-identical to the serial product (tested by
/// Gemm.ParallelMatchesSerialBitForBit).
constexpr std::size_t kRowsPerPanel = 64;

/// Columns per wide-and-flat panel: one parallel task, and the span of B
/// that stays cached while every row group walks it. A multiple of each
/// GEMV pass width (8, 12 and 16 columns), so only the last panel is
/// ragged.
constexpr std::size_t kColsPerPanel = 96;

/// Smallest 2·m·n·k worth sharding (task dispatch costs microseconds).
constexpr double kMinParallelFlops = 4.0e6;

/// Largest row count routed to the GEMV kernels instead of the packed
/// tiles (both operands untransposed). The crossover, measured per arm
/// with bench_gemm's small-m series against a tiles-only build: at the
/// crossbar's (m×784)·(784×10) the GEMV wins at every m = 1..8 on every
/// arm (2–9× at m = 1, 1.3–3× at m = 8); at the widest output measured
/// (n = 784) the AVX-512 tiles draw level at m = 8 and lead from m = 12.
constexpr std::size_t kGemvMaxRows = 8;

/// Widest output routed to the GEMV kernels at any row count and either
/// op (the narrow-n route): the paper's 10-class heads, whose 8-lane tile
/// strips would be mostly padding. The GEMV wins there on every arm at
/// every batch bench_gemm's route series measures (m = 16..1000).
constexpr std::size_t kNarrowMaxCols = 16;

/// gemm()'s wide-flat route: at most this many rows (one AVX-512 GEMV
/// call carries them all) against an output at least kWideMinCols wide
/// and four times wider than tall — the weight-gradient GEMMs. The shape
/// test is the one the transpose-swap it replaced used.
constexpr std::size_t kWideMaxRows = 12;
constexpr std::size_t kWideMinCols = 64;

// ---- micro-kernels ----------------------------------------------------------
//
// C[mr×nr] += Ap·Bp over a kc-deep packed panel pair. Ap is p-major with
// MR-interleaved (alpha-scaled, zero-padded) rows; Bp is a kc×NR strip
// (zero-padded columns), so the hot loop is branch-free and every load is
// contiguous. The MR·NR accumulators live in registers; the guarded
// writeback touches only the live mr×nr corner of the tile.
//
// The body is stamped out at several geometries: a portable 4×4 whose 16
// accumulators fit the 16 SSE2 xmm registers every x86-64 CPU has, and
// AVX2+FMA 6×8 / AVX-512 8×8 and 12×8 variants selected at runtime when
// the CPU supports them — vector width without -march flags, so one
// binary runs anywhere.

#define XS_GEMM_TILE_BODY(MR_, NR_)                                                 \
    double acc[(MR_) * (NR_)] = {};                                                 \
    for (std::size_t p = 0; p < kc; ++p) {                                          \
        const double* __restrict a = ap + p * (MR_);                                \
        const double* __restrict b = bp + p * bs;                                   \
        for (std::size_t r = 0; r < (MR_); ++r) {                                   \
            const double ar = a[r];                                                 \
            for (std::size_t j = 0; j < (NR_); ++j) acc[r * (NR_) + j] += ar * b[j];\
        }                                                                           \
    }                                                                               \
    for (std::size_t r = 0; r < mr; ++r) {                                          \
        double* __restrict crow = c + r * ldc;                                      \
        for (std::size_t j = 0; j < nr; ++j) crow[j] += acc[r * (NR_) + j];         \
    }

void tile_portable_4x4(const double* __restrict ap, const double* __restrict bp, std::size_t bs,
                       std::size_t kc, double* __restrict c, std::size_t ldc, std::size_t mr,
                       std::size_t nr) {
    XS_GEMM_TILE_BODY(4, 4)
}

using TileFn = void (*)(const double* __restrict, const double* __restrict, std::size_t,
                        std::size_t, double* __restrict, std::size_t, std::size_t, std::size_t);

// ---- GEMV kernels -----------------------------------------------------------
//
// C[M×n] += alpha·op(A)[M×kc]·B[kc×n] for M live rows of op(A), read in
// place at a[i·rs + p·ps] (so either op), against a row-major B read in
// place (row stride ldb); ragged column tails are masked instead of
// packed. Every B load is shared by the M rows. Per C element the
// arithmetic is exactly a tile's: a fresh accumulator per k-block, p
// ascending, acc ⊕= a·b (fused on the FMA arms, the portable tile's
// unfused expression on the portable arm), then one add into C — so a
// GEMV row is bit-identical to the same row computed inside any register
// tile of its arm.
//
// Where alpha enters is a template parameter, because (alpha·a)·b and
// a·(alpha·b) round differently. Scale::A multiplies each op(A) element as
// pack_a does (the tiles' chain); Scale::B multiplies each B element, which
// is the chain gemm()'s former transpose-swap produced for wide-and-flat
// products (the swap packed alpha·op(B)ᵀ as its A side, and the product
// commutes under fma). Scale::None serves alpha = 1, where both are exact.

enum class Scale { None, A, B };

using GemvFn = void (*)(double, const double* __restrict, std::size_t, std::size_t,
                        const double* __restrict, std::size_t, std::size_t, std::size_t,
                        double* __restrict, std::size_t);

/// Rows one GEMV call carries on the narrow and small-m routes. On the
/// AVX2 arm this is the most rows whose three 4-lane strips (the paper's
/// 10-class heads in one pass) fit the 16 ymm registers.
constexpr std::size_t kGemvRows = 4;

/// Most rows one GEMV call carries (the AVX-512 arm; AVX2 carries 6 and
/// portable 4): the wide-flat route puts all of a ≤ 12-row product on
/// each B load, or, swapped, as many of B's rows on each load of op(A)ᵀ.
constexpr std::size_t kGemvMaxCallRows = 12;

/// How many B rows ahead the GEMVs prefetch: a pass walks down a column
/// strip of B, one cache line per row, which the hardware prefetchers do
/// not follow once rows are long (the wide-and-flat route's B). Without
/// it (best of 10 alternating runs per arm, one 4-core AVX-512 VM) the
/// AVX-512 weight gradients at batch 256 and 1024 ran 1.3–1.5× slower and
/// a one-row crossbar read 1.2×, the AVX2 gradients 1.1×; the portable
/// arm's narrow products ran 1.1–1.4× slower and its wide-flat ones
/// 1.1–1.3× faster.
constexpr std::size_t kPrefetchRows = 8;

/// One W-column strip of the portable GEMV (W = 4 for full strips, the
/// remainder for the ragged tail) over p-major, M-interleaved rows — the
/// tile body with B read in place.
template <std::size_t M, std::size_t W, Scale kScale>
void gemv_portable_strip(double alpha, const double* __restrict ap, const double* __restrict b,
                         std::size_t ldb, std::size_t kc, double* __restrict c, std::size_t ldc) {
    double acc[M * W] = {};
    for (std::size_t p = 0; p < kc; ++p) {
        const double* __restrict a = ap + p * M;
        __builtin_prefetch(b + (p + kPrefetchRows) * ldb);
        double brow[W];
        for (std::size_t j = 0; j < W; ++j) {
            brow[j] = kScale == Scale::B ? alpha * b[p * ldb + j] : b[p * ldb + j];
        }
        for (std::size_t r = 0; r < M; ++r) {
            const double ar = a[r];
            for (std::size_t j = 0; j < W; ++j) acc[r * W + j] += ar * brow[j];
        }
    }
    for (std::size_t r = 0; r < M; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < W; ++j) crow[j] += acc[r * W + j];
    }
}

template <std::size_t M, Scale kScale>
void gemv_portable(double alpha, const double* __restrict a, std::size_t rs, std::size_t ps,
                   const double* __restrict b, std::size_t ldb, std::size_t n, std::size_t kc,
                   double* __restrict c, std::size_t ldc) {
    // Interleave the rows p-major as pack_a does: with the rows side by
    // side GCC vectorises the strip body across columns, as it does the
    // 4×4 tile, instead of across p with spilled accumulators.
    double ap[M * kBlockK];
    for (std::size_t r = 0; r < M; ++r) {
        for (std::size_t p = 0; p < kc; ++p) {
            const double x = a[r * rs + p * ps];
            ap[p * M + r] = kScale == Scale::A ? alpha * x : x;
        }
    }
    std::size_t j0 = 0;
    for (; j0 + 4 <= n; j0 += 4) {
        gemv_portable_strip<M, 4, kScale>(alpha, ap, b + j0, ldb, kc, c + j0, ldc);
    }
    switch (n - j0) {
        case 3:
            return gemv_portable_strip<M, 3, kScale>(alpha, ap, b + j0, ldb, kc, c + j0, ldc);
        case 2:
            return gemv_portable_strip<M, 2, kScale>(alpha, ap, b + j0, ldb, kc, c + j0, ldc);
        case 1:
            return gemv_portable_strip<M, 1, kScale>(alpha, ap, b + j0, ldb, kc, c + j0, ldc);
        default:
            return;
    }
}

/// dst[p·n + j] = src[j·lds + p] for j < n, p < k: a transposed operand
/// laid out row-major for the GEMV kernels, p outer so the copy streams
/// its output. Pure data movement, so every arm shares it.
void transpose_to_row_major(const double* __restrict src, std::size_t lds, std::size_t n,
                            std::size_t k, double* __restrict dst) {
    for (std::size_t p = 0; p < k; ++p)
        for (std::size_t j = 0; j < n; ++j) dst[p * n + j] = src[j * lds + p];
}

/// One arm's GEMV kernels, indexed [scale][live rows − 1]; `rows` is the
/// most rows one call takes (the entries past it are null).
struct GemvArm {
    GemvFn fn[3][kGemvMaxCallRows];
    std::size_t rows;
};

template <template <std::size_t, Scale> class K, std::size_t... I>
constexpr GemvArm make_gemv_arm(std::index_sequence<I...>) {
    return {{{K<I + 1, Scale::None>::run...},
             {K<I + 1, Scale::A>::run...},
             {K<I + 1, Scale::B>::run...}},
            sizeof...(I)};
}

template <std::size_t M, Scale kScale>
struct PortableGemv {
    static constexpr GemvFn run = gemv_portable<M, kScale>;
};

constexpr GemvArm kGemvPortable =
    make_gemv_arm<PortableGemv>(std::make_index_sequence<4>{});

#if defined(__x86_64__) && defined(__GNUC__)
#define XS_GEMM_HAVE_AVX2_VARIANT 1

// The AVX2 tiles are written with intrinsics rather than the generic body:
// at 48 accumulators GCC's scalar replacement gives up and spills the
// accumulator array to the stack every iteration, which is slower than the
// portable kernel. Explicit ymm accumulators pin the tile in registers.

__attribute__((target("avx2,fma"))) void tile_avx2_6x8(const double* __restrict ap,
                                                       const double* __restrict bp, std::size_t bs,
                                                       std::size_t kc, double* __restrict c,
                                                       std::size_t ldc, std::size_t mr,
                                                       std::size_t nr) {
    __m256d acc[12];
    for (auto& v : acc) v = _mm256_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const double* a = ap + p * 6;
        const __m256d b0 = _mm256_loadu_pd(bp + p * bs);
        const __m256d b1 = _mm256_loadu_pd(bp + p * bs + 4);
        const __m256d a0 = _mm256_broadcast_sd(a + 0);
        acc[0] = _mm256_fmadd_pd(a0, b0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a0, b1, acc[1]);
        const __m256d a1 = _mm256_broadcast_sd(a + 1);
        acc[2] = _mm256_fmadd_pd(a1, b0, acc[2]);
        acc[3] = _mm256_fmadd_pd(a1, b1, acc[3]);
        const __m256d a2 = _mm256_broadcast_sd(a + 2);
        acc[4] = _mm256_fmadd_pd(a2, b0, acc[4]);
        acc[5] = _mm256_fmadd_pd(a2, b1, acc[5]);
        const __m256d a3 = _mm256_broadcast_sd(a + 3);
        acc[6] = _mm256_fmadd_pd(a3, b0, acc[6]);
        acc[7] = _mm256_fmadd_pd(a3, b1, acc[7]);
        const __m256d a4 = _mm256_broadcast_sd(a + 4);
        acc[8] = _mm256_fmadd_pd(a4, b0, acc[8]);
        acc[9] = _mm256_fmadd_pd(a4, b1, acc[9]);
        const __m256d a5 = _mm256_broadcast_sd(a + 5);
        acc[10] = _mm256_fmadd_pd(a5, b0, acc[10]);
        acc[11] = _mm256_fmadd_pd(a5, b1, acc[11]);
    }
    double out[6 * 8];
    for (std::size_t r = 0; r < 12; ++r) _mm256_storeu_pd(out + r * 4, acc[r]);
    for (std::size_t r = 0; r < mr; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += out[r * 8 + j];
    }
}

// The AVX-512 tiles follow the same pattern one register width up: one
// 8-wide zmm load of the B strip per k-step, one broadcast-FMA per row.
// Per output element the FMA chain over p is identical to the AVX2 6×8
// tile's (each lane is an independent fused chain), so switching between
// the 8-row and 12-row geometry — or between the AVX2 and AVX-512 arms on
// NR=8 strips — never changes a result bit. The 12×8 tile holds 12
// accumulators plus loads in the 32 zmm registers and amortises each B
// strip load over half again as many rows as 8×8.

__attribute__((target("avx512f"))) void tile_avx512_8x8(const double* __restrict ap,
                                                        const double* __restrict bp, std::size_t bs,
                                                        std::size_t kc, double* __restrict c,
                                                        std::size_t ldc, std::size_t mr,
                                                        std::size_t nr) {
    __m512d acc[8];
    for (auto& v : acc) v = _mm512_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const double* a = ap + p * 8;
        const __m512d b = _mm512_loadu_pd(bp + p * bs);
        acc[0] = _mm512_fmadd_pd(_mm512_set1_pd(a[0]), b, acc[0]);
        acc[1] = _mm512_fmadd_pd(_mm512_set1_pd(a[1]), b, acc[1]);
        acc[2] = _mm512_fmadd_pd(_mm512_set1_pd(a[2]), b, acc[2]);
        acc[3] = _mm512_fmadd_pd(_mm512_set1_pd(a[3]), b, acc[3]);
        acc[4] = _mm512_fmadd_pd(_mm512_set1_pd(a[4]), b, acc[4]);
        acc[5] = _mm512_fmadd_pd(_mm512_set1_pd(a[5]), b, acc[5]);
        acc[6] = _mm512_fmadd_pd(_mm512_set1_pd(a[6]), b, acc[6]);
        acc[7] = _mm512_fmadd_pd(_mm512_set1_pd(a[7]), b, acc[7]);
    }
    double out[8 * 8];
    for (std::size_t r = 0; r < 8; ++r) _mm512_storeu_pd(out + r * 8, acc[r]);
    for (std::size_t r = 0; r < mr; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += out[r * 8 + j];
    }
}

__attribute__((target("avx512f"))) void tile_avx512_12x8(const double* __restrict ap,
                                                         const double* __restrict bp,
                                                         std::size_t bs, std::size_t kc,
                                                         double* __restrict c, std::size_t ldc,
                                                         std::size_t mr, std::size_t nr) {
    __m512d acc[12];
    for (auto& v : acc) v = _mm512_setzero_pd();
    for (std::size_t p = 0; p < kc; ++p) {
        const double* a = ap + p * 12;
        const __m512d b = _mm512_loadu_pd(bp + p * bs);
        acc[0] = _mm512_fmadd_pd(_mm512_set1_pd(a[0]), b, acc[0]);
        acc[1] = _mm512_fmadd_pd(_mm512_set1_pd(a[1]), b, acc[1]);
        acc[2] = _mm512_fmadd_pd(_mm512_set1_pd(a[2]), b, acc[2]);
        acc[3] = _mm512_fmadd_pd(_mm512_set1_pd(a[3]), b, acc[3]);
        acc[4] = _mm512_fmadd_pd(_mm512_set1_pd(a[4]), b, acc[4]);
        acc[5] = _mm512_fmadd_pd(_mm512_set1_pd(a[5]), b, acc[5]);
        acc[6] = _mm512_fmadd_pd(_mm512_set1_pd(a[6]), b, acc[6]);
        acc[7] = _mm512_fmadd_pd(_mm512_set1_pd(a[7]), b, acc[7]);
        acc[8] = _mm512_fmadd_pd(_mm512_set1_pd(a[8]), b, acc[8]);
        acc[9] = _mm512_fmadd_pd(_mm512_set1_pd(a[9]), b, acc[9]);
        acc[10] = _mm512_fmadd_pd(_mm512_set1_pd(a[10]), b, acc[10]);
        acc[11] = _mm512_fmadd_pd(_mm512_set1_pd(a[11]), b, acc[11]);
    }
    double out[12 * 8];
    for (std::size_t r = 0; r < 12; ++r) _mm512_storeu_pd(out + r * 8, acc[r]);
    for (std::size_t r = 0; r < mr; ++r) {
        double* __restrict crow = c + r * ldc;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += out[r * 8 + j];
    }
}

// The AVX2 GEMV covers 12 columns (three 4-lane strips) per pass at
// M ≤ 4 rows — 12 accumulators plus three B strips and one broadcast, the
// 16 ymm registers — which spans the paper's 10-class heads in one pass.
// Five or six rows take two strips, a full cache line of each B row, so
// the wide-flat route's B is walked once per six rows. Narrower outputs
// take fewer strips. Lanes past n are masked off on load and store.

/// Mask of the lanes j0 + 0..3 that lie below n (all-ones per live lane).
__attribute__((target("avx2,fma"))) inline __m256i avx2_live_lanes(std::size_t n, std::size_t j0) {
    const long long live = static_cast<long long>(n) - static_cast<long long>(j0);
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), _mm256_setr_epi64x(0, 1, 2, 3));
}

template <std::size_t M, std::size_t S, Scale kScale>
__attribute__((target("avx2,fma"))) void gemv_avx2_strips(double alpha, const double* __restrict a,
                                                          std::size_t rs, std::size_t ps,
                                                          const double* __restrict b,
                                                          std::size_t ldb, std::size_t n,
                                                          std::size_t kc, double* __restrict c,
                                                          std::size_t ldc) {
    const __m256d av = _mm256_set1_pd(alpha);
    for (std::size_t j0 = 0; j0 < n; j0 += 4 * S) {
        __m256i mask[S];
        for (std::size_t s = 0; s < S; ++s) mask[s] = avx2_live_lanes(n, j0 + 4 * s);
        __m256d acc[M][S];
        for (std::size_t r = 0; r < M; ++r)
            for (std::size_t s = 0; s < S; ++s) acc[r][s] = _mm256_setzero_pd();
        for (std::size_t p = 0; p < kc; ++p) {
            const double* brow = b + p * ldb + j0;
            const double* acol = a + p * ps;
            _mm_prefetch(reinterpret_cast<const char*>(brow + kPrefetchRows * ldb), _MM_HINT_T0);
            __m256d bv[S];
            for (std::size_t s = 0; s < S; ++s) {
                bv[s] = _mm256_maskload_pd(brow + 4 * s, mask[s]);
                if constexpr (kScale == Scale::B) bv[s] = _mm256_mul_pd(av, bv[s]);
            }
            for (std::size_t r = 0; r < M; ++r) {
                __m256d ar = _mm256_broadcast_sd(acol + r * rs);
                if constexpr (kScale == Scale::A) ar = _mm256_mul_pd(av, ar);
                for (std::size_t s = 0; s < S; ++s) {
                    acc[r][s] = _mm256_fmadd_pd(ar, bv[s], acc[r][s]);
                }
            }
        }
        for (std::size_t r = 0; r < M; ++r) {
            double* crow = c + r * ldc + j0;
            for (std::size_t s = 0; s < S; ++s) {
                const __m256d sum =
                    _mm256_add_pd(_mm256_maskload_pd(crow + 4 * s, mask[s]), acc[r][s]);
                _mm256_maskstore_pd(crow + 4 * s, mask[s], sum);
            }
        }
    }
}

// The AVX-512 GEMV covers 16 columns (two 8-lane strips) per pass, one
// strip when n ≤ 8, with masked loads and stores; lanes past n never
// touch memory. Twelve rows take 24 accumulators, two B strips and a
// broadcast of the 32 zmm registers.

/// Mask of the lanes j0 + 0..7 that lie below n.
inline __mmask8 avx512_live_lanes(std::size_t n, std::size_t j0) {
    const std::size_t live = j0 < n ? std::min<std::size_t>(n - j0, 8) : 0;
    return static_cast<__mmask8>((1u << live) - 1u);
}

template <std::size_t M, std::size_t S, Scale kScale>
__attribute__((target("avx512f"))) void gemv_avx512_strips(double alpha, const double* __restrict a,
                                                           std::size_t rs, std::size_t ps,
                                                           const double* __restrict b,
                                                           std::size_t ldb, std::size_t n,
                                                           std::size_t kc, double* __restrict c,
                                                           std::size_t ldc) {
    const __m512d av = _mm512_set1_pd(alpha);
    for (std::size_t j0 = 0; j0 < n; j0 += 8 * S) {
        __mmask8 mask[S];
        for (std::size_t s = 0; s < S; ++s) mask[s] = avx512_live_lanes(n, j0 + 8 * s);
        __m512d acc[M][S];
        for (std::size_t r = 0; r < M; ++r)
            for (std::size_t s = 0; s < S; ++s) acc[r][s] = _mm512_setzero_pd();
        for (std::size_t p = 0; p < kc; ++p) {
            const double* brow = b + p * ldb + j0;
            const double* acol = a + p * ps;
            _mm_prefetch(reinterpret_cast<const char*>(brow + kPrefetchRows * ldb), _MM_HINT_T0);
            _mm_prefetch(reinterpret_cast<const char*>(brow + kPrefetchRows * ldb + 8), _MM_HINT_T0);
            __m512d bv[S];
            for (std::size_t s = 0; s < S; ++s) {
                bv[s] = _mm512_maskz_loadu_pd(mask[s], brow + 8 * s);
                if constexpr (kScale == Scale::B) bv[s] = _mm512_mul_pd(av, bv[s]);
            }
            for (std::size_t r = 0; r < M; ++r) {
                __m512d ar = _mm512_set1_pd(acol[r * rs]);
                if constexpr (kScale == Scale::A) ar = _mm512_mul_pd(av, ar);
                for (std::size_t s = 0; s < S; ++s) {
                    acc[r][s] = _mm512_fmadd_pd(ar, bv[s], acc[r][s]);
                }
            }
        }
        for (std::size_t r = 0; r < M; ++r) {
            double* crow = c + r * ldc + j0;
            for (std::size_t s = 0; s < S; ++s) {
                const __m512d sum =
                    _mm512_add_pd(_mm512_maskz_loadu_pd(mask[s], crow + 8 * s), acc[r][s]);
                _mm512_mask_storeu_pd(crow + 8 * s, mask[s], sum);
            }
        }
    }
}

/// A pass spans no more strips than the output has columns: the swapped
/// wide-flat route's lanes are its ≤ 12 rows, and a dead strip still
/// costs its FMAs.
template <std::size_t M, Scale kScale>
__attribute__((target("avx2,fma"))) void gemv_avx2(double alpha, const double* __restrict a,
                                                   std::size_t rs, std::size_t ps,
                                                   const double* __restrict b, std::size_t ldb,
                                                   std::size_t n, std::size_t kc,
                                                   double* __restrict c, std::size_t ldc) {
    constexpr std::size_t S = M <= 4 ? 3 : 2;
    if (n <= 4) return gemv_avx2_strips<M, 1, kScale>(alpha, a, rs, ps, b, ldb, n, kc, c, ldc);
    if (n <= 8) return gemv_avx2_strips<M, 2, kScale>(alpha, a, rs, ps, b, ldb, n, kc, c, ldc);
    gemv_avx2_strips<M, S, kScale>(alpha, a, rs, ps, b, ldb, n, kc, c, ldc);
}

template <std::size_t M, Scale kScale>
__attribute__((target("avx512f"))) void gemv_avx512(double alpha, const double* __restrict a,
                                                    std::size_t rs, std::size_t ps,
                                                    const double* __restrict b, std::size_t ldb,
                                                    std::size_t n, std::size_t kc,
                                                    double* __restrict c, std::size_t ldc) {
    if (n <= 8) return gemv_avx512_strips<M, 1, kScale>(alpha, a, rs, ps, b, ldb, n, kc, c, ldc);
    gemv_avx512_strips<M, 2, kScale>(alpha, a, rs, ps, b, ldb, n, kc, c, ldc);
}

template <std::size_t M, Scale kScale>
struct Avx2Gemv {
    static constexpr GemvFn run = gemv_avx2<M, kScale>;
};

template <std::size_t M, Scale kScale>
struct Avx512Gemv {
    static constexpr GemvFn run = gemv_avx512<M, kScale>;
};

constexpr GemvArm kGemvAvx2 = make_gemv_arm<Avx2Gemv>(std::make_index_sequence<6>{});
constexpr GemvArm kGemvAvx512 =
    make_gemv_arm<Avx512Gemv>(std::make_index_sequence<kGemvMaxCallRows>{});

bool avx2_available() {
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    }();
    return available;
}

bool avx512_available() {
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    }();
    return available;
}
#else
bool avx2_available() { return false; }
bool avx512_available() { return false; }
#endif

#undef XS_GEMM_TILE_BODY

/// The tile function plus the geometry it was compiled for.
struct KernelConfig {
    TileFn tile;
    std::size_t mr;
    std::size_t nr;
};

/// A set_kernel_variant() override; kVariantUnset defers to the
/// environment (read once, below), which defers to Auto.
constexpr int kVariantUnset = -1;
std::atomic<int> g_variant_override{kVariantUnset};

KernelVariant env_variant() {
    static const KernelVariant parsed = [] {
        const char* e = std::getenv("XBARSEC_FORCE_KERNEL");
        if (e == nullptr || *e == '\0') return KernelVariant::Auto;
        const KernelVariant v = parse_kernel_variant(e);
        if (!kernel_variant_available(v)) {
            throw ConfigError(std::string("XBARSEC_FORCE_KERNEL=") + e +
                              ": this CPU does not support that kernel variant");
        }
        return v;
    }();
    return parsed;
}

KernelConfig pick_avx512(std::size_t m);

/// Picks the register tile for one product: Auto takes the widest arm the
/// CPU supports; a forced variant stays inside its own arm. Outputs of
/// n ≤ kNarrowMaxCols never reach the FMA tiles (they run on the GEMV), so
/// every FMA tile is 8 columns wide.
///
/// The choice between same-arm geometries depends on m only through the
/// row count a tile covers — never through the per-row accumulation chain —
/// so gemm_rowstable's partition invariance survives the m-dependent pick.
KernelConfig pick_kernel(std::size_t m) {
    switch (forced_kernel_variant()) {
        case KernelVariant::Portable:
            return {tile_portable_4x4, 4, 4};
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
        case KernelVariant::Avx2:
            return {tile_avx2_6x8, 6, 8};
        case KernelVariant::Avx512:
            return pick_avx512(m);
#endif
        default:
            break;
    }
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
    if (avx512_available()) return pick_avx512(m);
    if (avx2_available()) return {tile_avx2_6x8, 6, 8};
#endif
    (void)m;
    return {tile_portable_4x4, 4, 4};
}

#ifdef XS_GEMM_HAVE_AVX2_VARIANT
KernelConfig pick_avx512(std::size_t m) {
    if (m >= 12) return {tile_avx512_12x8, 12, 8};
    return {tile_avx512_8x8, 8, 8};
}
#endif

/// Picks the GEMV arm. A forced variant stays in its own arm; Auto takes
/// the widest, since every FMA arm (tile or GEMV) produces the same bits
/// per lane.
const GemvArm& pick_gemv() {
    switch (forced_kernel_variant()) {
        case KernelVariant::Portable:
            return kGemvPortable;
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
        case KernelVariant::Avx2:
            return kGemvAvx2;
        case KernelVariant::Avx512:
            return kGemvAvx512;
#endif
        default:
            break;
    }
#ifdef XS_GEMM_HAVE_AVX2_VARIANT
    if (avx512_available()) return kGemvAvx512;
    if (avx2_available()) return kGemvAvx2;
#endif
    return kGemvPortable;
}

/// Where the GEMV kernels read op(A): element (i, p) at a[i·rs + p·ps].
struct AView {
    const double* a;
    std::size_t rs, ps;
};

AView view_a(const Matrix& A, Op op) {
    if (op == Op::None) return {A.data(), A.cols(), 1};
    return {A.data(), 1, A.cols()};
}

/// op(B) as a row-major k×n operand: B itself when untransposed, else a
/// transposed copy in `arena` (the layer's Wᵀ, copied once per call).
const double* row_major_b(const Matrix& B, Op op, std::size_t kA, std::size_t n, Arena& arena) {
    if (op == Op::None) return B.data();
    double* const bt = arena.alloc<double>(kA * n).data();
    transpose_to_row_major(B.data(), B.cols(), n, kA, bt);
    return bt;
}

/// C[row0..row1) += alpha·op(A)·B over the k-blocks in [k0, k1) (k0 on a
/// block edge), `rows` rows per kernel call, B row-major k×n with row
/// stride ldb.
void gemv_rows(const GemvArm& arm, Scale scale, double alpha, const AView& A, const double* b,
               std::size_t ldb, std::size_t n, std::size_t k0, std::size_t k1, std::size_t rows,
               double* c, std::size_t ldc, std::size_t row0, std::size_t row1) {
    const GemvFn* const fn = arm.fn[static_cast<int>(scale)];
    for (; k0 < k1; k0 += kBlockK) {
        const std::size_t kc = std::min(kBlockK, k1 - k0);
        for (std::size_t i = row0; i < row1; i += rows) {
            const std::size_t mr = std::min(rows, row1 - i);
            fn[mr - 1](alpha, A.a + i * A.rs + k0 * A.ps, A.rs, A.ps, b + k0 * ldb, ldb, n, kc,
                       c + i * ldc, ldc);
        }
    }
}

/// Whether 2·m·n·k is worth sharding over `parts` tasks.
bool worth_sharding(const ThreadPool* pool, std::size_t parts, std::size_t m, std::size_t n,
                    std::size_t kA) {
    return pool != nullptr && parts > 1 &&
           2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(kA) >=
               kMinParallelFlops;
}

/// Runs panel(0..panels) on the pool when the product is worth sharding,
/// else in order on the calling thread.
template <typename Fn>
void for_each_panel(ThreadPool* pool, std::size_t panels, std::size_t m, std::size_t n,
                    std::size_t kA, const Fn& panel) {
    if (worth_sharding(pool, panels, m, n, kA)) {
        parallel_for(*pool, panels, panel);
    } else {
        for (std::size_t t = 0; t < panels; ++t) panel(t);
    }
}

/// C += alpha·op(A)·op(B) on the GEMV kernels with the tiles' chain
/// (alpha on the A side): the small-m and narrow-n routes. Rows shard
/// over the pool in kRowsPerPanel panels, as the tiles shard them.
void gemv_dispatch(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, Matrix& C,
                   std::size_t m, std::size_t n, std::size_t kA, ThreadPool* pool) {
    const GemvArm& arm = pick_gemv();
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    const double* const b = row_major_b(B, opB, kA, n, arena);
    const AView a = view_a(A, opA);
    const Scale scale = alpha == 1.0 ? Scale::None : Scale::A;
    const std::size_t panels = (m + kRowsPerPanel - 1) / kRowsPerPanel;
    for_each_panel(pool, panels, m, n, kA, [&](std::size_t t) {
        const std::size_t r0 = t * kRowsPerPanel;
        gemv_rows(arm, scale, alpha, a, b, n, n, 0, kA, kGemvRows, C.data(), n, r0,
                  std::min(r0 + kRowsPerPanel, m));
    });
}

/// wide_dispatch with a transposed B (a layer's Wᵀ, stored n×k). Copying
/// Wᵀ row-major would cost more than the product, so the GEMV runs it
/// swapped, Cᵀ = op(B)ᵀ·op(A)ᵀ, as the transpose-swap did: B's rows are
/// the broadcast side, read in place with alpha on them (Scale::A of the
/// swapped product is the B side of C's), and op(A)ᵀ — m ≤ 12 lanes,
/// copied when op(A) is untransposed — the row-major operand. Each k-block
/// lands in a zeroed n×m scratch that is then added into C, so per element
/// the chain is wide_dispatch's. B's rows shard over the pool.
void wide_swapped(const GemvArm& arm, double alpha, const Matrix& A, Op opA, const Matrix& B,
                  Matrix& C, std::size_t m, std::size_t n, std::size_t kA, ThreadPool* pool,
                  Arena& arena) {
    const double* at = A.data();
    if (opA == Op::None) {
        double* const buf = arena.alloc<double>(kA * m).data();
        transpose_to_row_major(A.data(), A.cols(), m, kA, buf);
        at = buf;
    }
    const AView w{B.data(), B.cols(), 1};
    const Scale scale = alpha == 1.0 ? Scale::None : Scale::A;
    double* const ct = arena.alloc<double>(n * m).data();
    double* const c = C.data();
    const std::size_t panels = (n + kRowsPerPanel - 1) / kRowsPerPanel;
    for (std::size_t k0 = 0; k0 < kA; k0 += kBlockK) {
        const std::size_t k1 = std::min(k0 + kBlockK, kA);
        std::fill(ct, ct + n * m, 0.0);
        for_each_panel(pool, panels, m, n, k1 - k0, [&](std::size_t t) {
            const std::size_t r0 = t * kRowsPerPanel;
            gemv_rows(arm, scale, alpha, w, at, m, m, k0, k1, arm.rows, ct, m, r0,
                      std::min(r0 + kRowsPerPanel, n));
        });
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j) c[i * n + j] += ct[j * m + i];
    }
}

/// gemm()'s wide-and-flat route (m ≤ 12, long n): every row of op(A) on
/// each load of B (read in place), lanes across n, alpha on the B side — the chain of the
/// transpose-swap this route replaced, which computed Cᵀ with alpha·op(B)ᵀ
/// packed as its A side (fma commutes, so the bits match). Each k-block
/// adds straight into C, as the tiles' do. Columns run in kColsPerPanel
/// panels, so a panel of B stays cached across the arm's row groups, and
/// shard over the pool like rows elsewhere.
void wide_dispatch(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, Matrix& C,
                   std::size_t m, std::size_t n, std::size_t kA, ThreadPool* pool) {
    const GemvArm& arm = pick_gemv();
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    if (opB == Op::Transpose) return wide_swapped(arm, alpha, A, opA, B, C, m, n, kA, pool, arena);
    const double* const b = B.data();
    const AView a = view_a(A, opA);
    const Scale scale = alpha == 1.0 ? Scale::None : Scale::B;
    double* const c = C.data();
    // Rows split evenly over as few kernel calls as the arm allows.
    const std::size_t groups = (m + arm.rows - 1) / arm.rows;
    const std::size_t rows = (m + groups - 1) / groups;
    const std::size_t panels = (n + kColsPerPanel - 1) / kColsPerPanel;
    for_each_panel(pool, panels, m, n, kA, [&](std::size_t t) {
        const std::size_t j0 = t * kColsPerPanel;
        gemv_rows(arm, scale, alpha, a, b + j0, n, std::min(kColsPerPanel, n - j0), 0, kA, rows,
                  c + j0, n, 0, m);
    });
}

// ---- panel packing ----------------------------------------------------------

/// Packs rows [i0, i0+mr) of op(A)'s k-slice [k0, k1) into an alpha-scaled,
/// p-major, MR-interleaved micro-panel. Rows beyond mr pad with zeros so
/// the micro-kernel never branches on the row count.
void pack_a(const Matrix& A, Op op, double alpha, std::size_t i0, std::size_t mr, std::size_t MR,
            std::size_t k0, std::size_t k1, double* __restrict ap) {
    const std::size_t kc = k1 - k0;
    const std::size_t lda = A.cols();
    if (op == Op::None) {
        for (std::size_t r = 0; r < MR; ++r) {
            if (r < mr) {
                const double* __restrict src = A.data() + (i0 + r) * lda + k0;
                for (std::size_t p = 0; p < kc; ++p) ap[p * MR + r] = alpha * src[p];
            } else {
                for (std::size_t p = 0; p < kc; ++p) ap[p * MR + r] = 0.0;
            }
        }
    } else {
        // op(A)(i, p) = A(p, i): the stored k-rows are contiguous.
        if (mr == MR) {
            for (std::size_t p = 0; p < kc; ++p) {
                const double* __restrict src = A.data() + (k0 + p) * lda + i0;
                for (std::size_t r = 0; r < MR; ++r) ap[p * MR + r] = alpha * src[r];
            }
        } else {
            for (std::size_t p = 0; p < kc; ++p) {
                const double* __restrict src = A.data() + (k0 + p) * lda + i0;
                for (std::size_t r = 0; r < MR; ++r) {
                    ap[p * MR + r] = r < mr ? alpha * src[r] : 0.0;
                }
            }
        }
    }
}

/// Packs op(B)'s k-slice [k0, k1) into NR-wide strips (the tail strip is
/// zero-padded). Strip s holds op(B)(k0..k1, s·NR..s·NR+NR) p-major.
void pack_b(const Matrix& B, Op op, std::size_t n, std::size_t NR, std::size_t k0, std::size_t k1,
            double* __restrict bp) {
    const std::size_t kc = k1 - k0;
    const std::size_t strips = (n + NR - 1) / NR;
    const std::size_t ldb = B.cols();
    if (op == Op::None) {
        for (std::size_t s = 0; s < strips; ++s) {
            const std::size_t j0 = s * NR;
            const std::size_t w = std::min(NR, n - j0);
            double* __restrict dst = bp + s * kc * NR;
            for (std::size_t p = 0; p < kc; ++p) {
                const double* __restrict src = B.data() + (k0 + p) * ldb + j0;
                for (std::size_t j = 0; j < NR; ++j) dst[p * NR + j] = j < w ? src[j] : 0.0;
            }
        }
    } else {
        // op(B)(p, j) = B(j, p): the stored j-rows are contiguous in p.
        for (std::size_t s = 0; s < strips; ++s) {
            const std::size_t j0 = s * NR;
            double* __restrict dst = bp + s * kc * NR;
            for (std::size_t jj = 0; jj < NR; ++jj) {
                const std::size_t j = j0 + jj;
                if (j < n) {
                    const double* __restrict src = B.data() + j * ldb + k0;
                    for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = src[p];
                } else {
                    for (std::size_t p = 0; p < kc; ++p) dst[p * NR + jj] = 0.0;
                }
            }
        }
    }
}

/// Packs the single (ragged) strip of an untransposed B starting at column
/// j0 — the tail the direct-B path cannot read in place without running
/// past the row end.
void pack_b_strip(const Matrix& B, std::size_t n, std::size_t NR, std::size_t j0, std::size_t k0,
                  std::size_t k1, double* __restrict bp) {
    const std::size_t kc = k1 - k0;
    const std::size_t ldb = B.cols();
    const std::size_t w = n - j0;
    for (std::size_t p = 0; p < kc; ++p) {
        const double* __restrict src = B.data() + (k0 + p) * ldb + j0;
        for (std::size_t j = 0; j < NR; ++j) bp[p * NR + j] = j < w ? src[j] : 0.0;
    }
}

/// How the micro-kernel reads op(B)'s current k-block: either packed
/// strips (strip s at `packed + s·kc·nr`, row stride nr), or — when the
/// operand is untransposed and m is too small to amortise a full repack —
/// the rows of B itself (row stride ldb), with only the zero-padded tail
/// strip packed.
struct BView {
    const double* packed = nullptr;  ///< non-null ⇒ fully packed panel
    const double* direct = nullptr;  ///< B.data() + k0·ldb (direct mode)
    const double* tail = nullptr;    ///< packed tail strip (direct mode)
    std::size_t ldb = 0;
};

/// Runs the micro-kernel over C rows [row0, row1) against one B k-block.
/// Each worker packs its own A micro-panels (thread-local buffer); the B
/// panel is shared read-only.
void gemm_rows(const KernelConfig& cfg, double alpha, const Matrix& A, Op opA, const BView& bview,
               std::size_t n, std::size_t k0, std::size_t k1, std::size_t row0, std::size_t row1,
               Matrix& C) {
    const std::size_t kc = k1 - k0;
    const std::size_t strips = (n + cfg.nr - 1) / cfg.nr;
    const std::size_t ldc = C.cols();

    // The A micro-panel is per-worker scratch: each worker bumps its own
    // thread arena, and the Scope rewinds it on exit, so nested pooled
    // GEMMs interleave cleanly on one thread (LIFO) and never on two.
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    double* const ap = arena.alloc<double>(cfg.mr * kc).data();

    for (std::size_t i = row0; i < row1; i += cfg.mr) {
        const std::size_t mr = std::min(cfg.mr, row1 - i);
        pack_a(A, opA, alpha, i, mr, cfg.mr, k0, k1, ap);
        for (std::size_t s = 0; s < strips; ++s) {
            const std::size_t j0 = s * cfg.nr;
            const double* bp;
            std::size_t bs;
            if (bview.packed != nullptr) {
                bp = bview.packed + s * kc * cfg.nr;
                bs = cfg.nr;
            } else if (j0 + cfg.nr <= n) {
                bp = bview.direct + j0;
                bs = bview.ldb;
            } else {
                bp = bview.tail;
                bs = cfg.nr;
            }
            cfg.tile(ap, bp, bs, kc, C.data() + i * ldc + j0, ldc, mr, std::min(cfg.nr, n - j0));
        }
    }
}

/// C += alpha·op(A)·op(B) on the packed tiles, shapes already validated,
/// beta already applied.
void tiles_dispatch(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, Matrix& C,
                    std::size_t m, std::size_t n, std::size_t kA, ThreadPool* pool) {
    const KernelConfig cfg = pick_kernel(m);

    // Skip the full B repack when the operand is already row-major and m is
    // too small to amortise it: the tiles read B's rows in place and only a
    // ragged tail strip gets packed.
    const bool direct_b = opB == Op::None && m <= 8 * cfg.mr;

    // The B panel comes off the dispatching thread's arena and is shared
    // read-only with the workers; it outlives every parallel_for below and
    // is reclaimed by the Scope when the product completes.
    Arena& arena = thread_arena();
    const Arena::Scope scratch(arena);
    const std::size_t strips = (n + cfg.nr - 1) / cfg.nr;
    const std::size_t kc_max = std::min(kBlockK, kA);
    const std::size_t panel_doubles =
        direct_b ? kc_max * cfg.nr : strips * kc_max * cfg.nr;
    const std::span<double> bpanel = arena.alloc<double>(panel_doubles);

    const std::size_t panels = (m + kRowsPerPanel - 1) / kRowsPerPanel;
    const bool shard = worth_sharding(pool, panels, m, n, kA);
    for (std::size_t k0 = 0; k0 < kA; k0 += kBlockK) {
        const std::size_t k1 = std::min(k0 + kBlockK, kA);
        BView bview;
        if (direct_b) {
            bview.direct = B.data() + k0 * B.cols();
            bview.ldb = B.cols();
            if (n % cfg.nr != 0) {
                const std::size_t tail_j0 = (n / cfg.nr) * cfg.nr;
                pack_b_strip(B, n, cfg.nr, tail_j0, k0, k1, bpanel.data());
                bview.tail = bpanel.data();
            }
        } else {
            pack_b(B, opB, n, cfg.nr, k0, k1, bpanel.data());
            bview.packed = bpanel.data();
        }
        if (shard) {
            parallel_for(*pool, panels, [&](std::size_t t) {
                const std::size_t r0 = t * kRowsPerPanel;
                gemm_rows(cfg, alpha, A, opA, bview, n, k0, k1, r0,
                          std::min(r0 + kRowsPerPanel, m), C);
            });
        } else {
            gemm_rows(cfg, alpha, A, opA, bview, n, k0, k1, 0, m, C);
        }
    }
}

}  // namespace

void set_kernel_variant(KernelVariant v) {
    if (!kernel_variant_available(v)) {
        throw ConfigError(std::string("set_kernel_variant(") + to_string(v) +
                          "): this CPU does not support that kernel variant");
    }
    g_variant_override.store(static_cast<int>(v), std::memory_order_relaxed);
}

KernelVariant forced_kernel_variant() {
    const int forced = g_variant_override.load(std::memory_order_relaxed);
    if (forced != kVariantUnset) return static_cast<KernelVariant>(forced);
    return env_variant();
}

bool kernel_variant_available(KernelVariant v) {
    switch (v) {
        case KernelVariant::Avx2:
            return avx2_available();
        case KernelVariant::Avx512:
            return avx512_available();
        case KernelVariant::Auto:
        case KernelVariant::Portable:
            return true;
    }
    return false;
}

const char* to_string(KernelVariant v) {
    switch (v) {
        case KernelVariant::Auto:
            return "auto";
        case KernelVariant::Portable:
            return "portable";
        case KernelVariant::Avx2:
            return "avx2";
        case KernelVariant::Avx512:
            return "avx512";
    }
    return "?";
}

KernelVariant parse_kernel_variant(const std::string& name) {
    if (name == "auto") return KernelVariant::Auto;
    if (name == "portable") return KernelVariant::Portable;
    if (name == "avx2") return KernelVariant::Avx2;
    if (name == "avx512") return KernelVariant::Avx512;
    throw ConfigError("unknown kernel variant \"" + name +
                      "\" (expected auto | portable | avx2 | avx512)");
}

static void gemm_impl(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta,
                      Matrix& C, ThreadPool* pool, bool allow_wide) {
    const std::size_t m = opA == Op::None ? A.rows() : A.cols();
    const std::size_t kA = opA == Op::None ? A.cols() : A.rows();
    const std::size_t kB = opB == Op::None ? B.rows() : B.cols();
    const std::size_t n = opB == Op::None ? B.cols() : B.rows();
    XS_EXPECTS_MSG(kA == kB, "gemm inner dimensions disagree");
    XS_EXPECTS_MSG(C.rows() == m && C.cols() == n, "gemm output shape mismatch");
    XS_EXPECTS_MSG(C.data() != A.data() && C.data() != B.data(), "gemm output aliases an input");

    if (beta == 0.0) {
        C.fill(0.0);
    } else if (beta != 1.0) {
        C *= beta;
    }
    if (alpha == 0.0 || m == 0 || n == 0 || kA == 0) return;

    // Route by shape (see the table in gemm.hpp). Every route reproduces
    // the tiles' per-element chain — except that gemm()'s wide-and-flat
    // route scales op(B) by alpha, as the transpose-swap it replaced did —
    // so the choice of route never shows in the results.
    if (allow_wide && m <= kWideMaxRows && n >= kWideMinCols && n >= 4 * m) {
        wide_dispatch(alpha, A, opA, B, opB, C, m, n, kA, pool);
    } else if (n <= kNarrowMaxCols || (m <= kGemvMaxRows && opA == Op::None &&
                                       opB == Op::None)) {
        gemv_dispatch(alpha, A, opA, B, opB, C, m, n, kA, pool);
    } else {
        tiles_dispatch(alpha, A, opA, B, opB, C, m, n, kA, pool);
    }
}

void gemm(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta, Matrix& C,
          ThreadPool* pool) {
    gemm_impl(alpha, A, opA, B, opB, beta, C, pool, /*allow_wide=*/true);
}

void gemm_rowstable(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta,
                    Matrix& C, ThreadPool* pool) {
    // Same routes, minus gemm()'s wide-and-flat one: that route scales
    // op(B) rather than op(A) by alpha, and whether it fires depends on
    // m — so a caller that chops its row batch into sub-batches could
    // change results bitwise. Without it every route runs the tiles'
    // chain, so each C row depends only on (k, n) and that row of op(A),
    // never on m or the pool partition (pinned by test_gemm).
    gemm_impl(alpha, A, opA, B, opB, beta, C, pool, /*allow_wide=*/false);
}

Matrix matmul(const Matrix& A, const Matrix& B) { return matmul(A, Op::None, B, Op::None); }

Matrix matmul(const Matrix& A, Op opA, const Matrix& B, Op opB) {
    const std::size_t m = opA == Op::None ? A.rows() : A.cols();
    const std::size_t n = opB == Op::None ? B.cols() : B.rows();
    Matrix C(m, n, 0.0);
    gemm(1.0, A, opA, B, opB, 0.0, C);
    return C;
}

}  // namespace xbarsec::tensor
