// General matrix-matrix multiply with transpose options.
//
// Minibatch training is expressed as GEMMs (X·Wᵀ forward, Gᵀ·X for weight
// gradients), and every crossbar read — a batch or a single attacker
// query — reduces to one GEMM against the differential conductance matrix,
// so this is the throughput core of the whole library. The implementation
// is a packed-panel kernel (no external BLAS dependency):
//
//   * the k dimension is blocked (256 deep) so a panel of each operand stays
//     cache-resident while it is consumed;
//   * B's k-slice is packed once per block into register-tile-wide strips
//     (or, for few row blocks, read in place with only the ragged tail strip
//     packed), A's rows are packed (alpha-scaled, transposes folded in) per
//     micro-panel — the inner loop only ever reads contiguous memory;
//   * the hot loop updates a register tile of C. It is compiled in three
//     arms picked at runtime, with no -march flags: a portable 4×4 (plain
//     C++, unfused multiply-add), AVX2+FMA 6×4 / 6×8, and AVX-512F 8×8 /
//     12×8 (see "kernel-variant dispatch" below).
//
// Small-m GEMV path. A product of at most 8 rows with both operands
// untransposed — one crossbar query is a 1-row product against the 784×10
// conductances — skips A packing and the tiles. A GEMV kernel, compiled in
// the same three arms (AVX-512 8-lane masked, AVX2 4-lane maskload,
// portable scalar), carries up to 4 rows that share every B load and reads
// B's rows in place, masking the ragged column tail. It is chosen by shape
// alone. A scalar 784×10 product costs 1.4–1.6 µs on it against 15–17 µs
// through the tiles (AVX2/AVX-512 arms; BENCH_gemm.json "small-m" series).
//
// Why the GEMV keeps gemm_rowstable's contract: it reproduces a tile's
// accumulation chain for every C element exactly — a fresh accumulator per
// k-block, p ascending over alpha·a[p] scaled as pack_a scales it, fused
// multiply-add on the FMA arms and the tile's unfused expression on the
// portable arm, then one add of the block's partial sum into C. A row
// therefore has the same bits whether it is computed alone on the GEMV or
// inside a batch on the tiles (pinned per arm by test_kernel_variants).
//
// Passing a ThreadPool shards the output over row panels. Each C element
// accumulates in the same order regardless of the partition, so the
// parallel product is bit-identical to the serial one (tested).
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
// `Auto` (the default) picks an arm the CPU supports per product shape: the
// widest for the GEMV, AVX2 6×4 tiles for skinny outputs where 8-lane
// strips would be mostly padding. Every FMA arm yields the same bits per
// output element, so that choice never changes a result. The other values
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

/// gemm without the wide-and-flat transpose-swap heuristic. Guarantees
/// that each row of C is produced by an accumulation chain that depends
/// only on (k, n) and that row of op(A) — never on m or the pool — so any
/// row partition of the batch yields bit-identical rows. The crossbar's
/// batched measurement paths use this for split-invariant reproducibility;
/// prefer plain gemm() everywhere throughput is the only requirement.
void gemm_rowstable(double alpha, const Matrix& A, Op opA, const Matrix& B, Op opB, double beta,
                    Matrix& C, ThreadPool* pool = nullptr);

/// Convenience: returns A·B.
Matrix matmul(const Matrix& A, const Matrix& B);

/// Convenience: returns op(A)·op(B).
Matrix matmul(const Matrix& A, Op opA, const Matrix& B, Op opB);

}  // namespace xbarsec::tensor
