// General matrix-matrix multiply with transpose options.
//
// Minibatch training is expressed as GEMMs (X·Wᵀ forward, Gᵀ·X for weight
// gradients), and every crossbar read — a batch or a single attacker
// query — reduces to one GEMM against the differential conductance matrix,
// so this is the throughput core of the whole library. There is no
// external BLAS dependency. A product takes one of four routes, chosen by
// shape alone (m×n output, k deep, after the ops):
//
//   route         shape                              kernel
//   ------------  ---------------------------------  ------------------------
//   narrow-n      n ≤ 16, any m, any ops             GEMV, ≤ 4 rows per call
//   small-m       m ≤ 8, both ops untransposed       GEMV, ≤ 4 rows per call
//   wide-flat     gemm() only: m ≤ 12, n ≥ 64,       GEMV, ≤ 12 rows per call
//                 n ≥ 4m, any ops                    (AVX2 6, portable 4)
//   tiles         everything else                    packed register tiles
//
// The tiles are a packed-panel kernel: k is blocked 256 deep so a panel of
// each operand stays cache-resident; B's k-slice is packed once per block
// into register-tile-wide strips (or read in place, with only the ragged
// tail strip packed, when there are few row blocks); A's rows are packed
// (alpha-scaled, transposes folded in) per micro-panel; the hot loop
// updates a register tile of C. Tiles come in three arms picked at
// runtime, with no -march flags: a portable 4×4 (plain C++, unfused
// multiply-add), AVX2+FMA 6×8 and AVX-512F 8×8 / 12×8.
//
// The GEMV kernels — the same three arms: AVX-512 8-lane masked strips,
// AVX2 4-lane strips, portable scalar strips — read op(A) in place
// (either op) and B's rows in place, masking the ragged column tail. A
// transposed B (the layer's Wᵀ) is copied once per call into a k×n
// scratch on the narrow-n route; the wide-flat route instead runs such a
// product swapped (Cᵀ = B·op(A)ᵀ, B's rows broadcast in place, op(A)ᵀ's
// ≤ 12 columns as the lanes), because copying a wide Wᵀ costs more than
// the product. Every row of a call shares each B load. They serve the
// paper's 10-class products. On the AVX-512 arm a scalar 784×10 crossbar
// read costs 1.4–1.6 µs on them against 15–17 µs through the tiles, the
// trainers' forward X·Wᵀ at batch 32 28 µs against 40 µs, and their
// weight gradient Δᵀ·X 11 µs against 37 µs (BENCH_gemm.json "small-m"
// and "route" series; tiles figures from the tree before the routes).
//
// Why every route keeps gemm_rowstable's contract: each reproduces a
// tile's accumulation chain for every C element exactly — a fresh
// accumulator per k-block, p ascending over alpha·a[p] scaled as pack_a
// scales it, fused multiply-add on the FMA arms and the tile's unfused
// expression on the portable arm, then one add of the block's partial sum
// into C. A row therefore has the same bits on any route, alone or inside
// a batch (pinned per arm by test_kernel_variants). gemm()'s wide-flat
// route differs in one place, by design: alpha scales op(B) rather than
// op(A), as in the transpose-swap it replaced, so with beta = 0 (every
// caller in the library) gemm()'s results are the bits they always were.
//
// Passing a ThreadPool shards the output over row panels (column panels on
// the wide-flat route). Each C element accumulates in the same order
// regardless of the partition, so the parallel product is bit-identical to
// the serial one (tested).
#pragma once

#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/matrix.hpp"

namespace xbarsec::tensor {

/// Whether an operand participates as itself or its transpose.
enum class Op { None, Transpose };

// ---- kernel-variant dispatch ------------------------------------------------
//
// The register-tile and GEMV micro-kernels are compiled at three ISA levels
// and picked at runtime: portable (plain C++), AVX2+FMA and AVX-512F.
// `Auto` (the default) picks the widest arm the CPU supports. Every FMA arm
// yields the same bits per output element, so that choice never changes a
// result. The other values
// force one arm — for conformance testing (ctest -L kernel runs the GEMM
// property suites once per variant) and for benchmarking the arms against
// each other. Forcing is also available without code via the
// XBARSEC_FORCE_KERNEL environment variable (auto | portable | avx2 |
// avx512), read once at first use; a set_kernel_variant() call overrides
// the environment.

enum class KernelVariant { Auto, Portable, Avx2, Avx512 };

/// Forces every subsequent gemm onto one kernel arm (process-wide).
/// Throws ConfigError when the CPU lacks the requested ISA.
void set_kernel_variant(KernelVariant v);

/// The forced variant currently in effect: a set_kernel_variant() override,
/// else XBARSEC_FORCE_KERNEL, else Auto. Throws ConfigError when the
/// environment variable is unparseable or names an unsupported ISA.
KernelVariant forced_kernel_variant();

/// Whether this CPU can run `v` (Auto and Portable are always available).
bool kernel_variant_available(KernelVariant v);

/// Lower-case name, matching the XBARSEC_FORCE_KERNEL spelling.
const char* to_string(KernelVariant v);

/// Inverse of to_string(); throws ConfigError on unknown names.
KernelVariant parse_kernel_variant(const std::string& name);

/// C = alpha * op(A) · op(B) + beta * C.
///
/// Shapes (after applying ops): op(A) is (m×k), op(B) is (k×n), C must be
/// (m×n). Aliasing C with A or B is not allowed. When `pool` is non-null
/// and the product is large enough to amortise task dispatch, row panels
/// of C are computed on the pool's workers (bit-identical to serial).
void gemm(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta, Matrix& C,
          ThreadPool* pool = nullptr);

/// gemm without the wide-flat route. Guarantees that each row of C is
/// produced by an accumulation chain that depends only on (k, n) and that
/// row of op(A) — never on m or the pool — so any row partition of the
/// batch yields bit-identical rows. The crossbar's
/// batched measurement paths use this for split-invariant reproducibility;
/// prefer plain gemm() everywhere throughput is the only requirement.
void gemm_rowstable(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta,
                    Matrix& C, ThreadPool* pool = nullptr);

/// Convenience: returns A·B.
Matrix matmul(const Matrix& A, const Matrix& B);

/// Convenience: returns op(A)·op(B).
Matrix matmul(const Matrix& A, Op opA, const Matrix& B, Op opB);

}  // namespace xbarsec::tensor
