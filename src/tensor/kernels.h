#ifndef SDEA_TENSOR_KERNELS_H_
#define SDEA_TENSOR_KERNELS_H_

#include <cstdint>

namespace sdea::tmath {

/// Instruction set the kernels run with. Resolved once at startup from the
/// SDEA_SIMD environment variable ("off"/"scalar" force the portable path,
/// "avx2" forces AVX2, anything else / unset auto-detects via CPUID) and
/// overridable per-process with SetSimdLevel (tests, benches). In exact
/// mode the level changes only the speed: the AVX2 row kernels give the
/// scalar kernels' bits for every non-NaN output and NaN in the same
/// positions. In fast mode it changes the reduction tree (see KernelMode).
enum class SimdLevel {
  kScalar = 0,  ///< Portable C++; compiled into every build.
  kAvx2 = 1,    ///< AVX2+FMA intrinsics; used only when CPUID reports both.
};

/// Accumulation contract the matmul family runs under.
///
/// kExact (default): every output element accumulates its k partial
/// products in double precision, ascending-k, rounded to float once —
/// bitwise identical for every thread count, SIMD level and machine. NaN
/// payloads are the one exception: which of two NaN operands propagates
/// follows instruction operand order, so only NaN positions are pinned.
///
/// kFast accumulates in float32 with cache-blocked, SIMD-vectorized inner
/// loops. Results are still deterministic for a fixed SimdLevel (the
/// per-element reduction tree is a pure function of the shapes, and rows
/// are sharded so thread count never changes it), but they differ from
/// exact mode — and between SIMD levels, because FMA does not round the
/// intermediate product — by O(k * eps) relative error. The tolerance
/// tests in tensor_kernels_test pin that bound.
enum class KernelMode {
  kExact = 0,
  kFast = 1,
};

/// True when the AVX2 translation unit was compiled in (x86-64 toolchain
/// with -mavx2 -mfma support).
bool Avx2CompiledIn();

/// True when AVX2 kernels can actually run: compiled in and the CPU
/// reports AVX2+FMA.
bool Avx2Supported();

/// The SIMD level the kernels dispatch to right now.
SimdLevel ActiveSimdLevel();

/// Overrides the active level. Asking for kAvx2 when !Avx2Supported() is a
/// programming error (SDEA_CHECK).
void SetSimdLevel(SimdLevel level);

/// The accumulation mode the matmul family dispatches on right now.
/// Initialized from SDEA_KERNEL_MODE ("fast" opts in; anything else /
/// unset stays exact).
KernelMode ActiveKernelMode();

/// Switches the accumulation mode process-wide. Must not race with
/// in-flight kernels (same caveat as ThreadPool::SetGlobalNumThreads).
void SetKernelMode(KernelMode mode);

const char* SimdLevelName(SimdLevel level);
const char* KernelModeName(KernelMode mode);

/// Raw row-range kernels underneath tmath::Matmul* and the ranking paths.
/// Pointers follow the tensor.cc conventions: row-major, no aliasing
/// between inputs and outputs.
namespace kernels {

/// One dot product under the exact contract: double accumulator,
/// ascending-d, no term skipped (NaN/Inf propagate), rounded once by the
/// caller if a float is wanted.
double DotExact(const float* a, const float* b, int64_t d);

/// One dot product under the fast contract, dispatched on
/// ActiveSimdLevel(). The reduction tree is identical to the one fast-mode
/// MatmulTransposeBRows uses per output element, so ranking paths that
/// score through DotFast agree bitwise with the score-matrix path at the
/// same level.
float DotFast(const float* a, const float* b, int64_t d);

/// The similarity used by every ranking site (candidate generation, IVF
/// probing and scanning, embedding-store scans): mode-dispatched so all
/// sites agree with each other and with the MatmulTransposeB score-matrix
/// path in BOTH modes. Exact mode rounds DotExact to float once.
float ScoreDot(const float* a, const float* b, int64_t d);

/// Row-range matmuls underneath tmath::Matmul*, dispatched on
/// ActiveKernelMode() and then ActiveSimdLevel(). Each writes output rows
/// [i_begin, i_end) only, so callers shard rows across threads with
/// bitwise-stable results.

/// c[i,:] = a[i,:] @ b for a [m,k], b [k,n].
void MatmulRows(const float* a, const float* b, float* c, int64_t k,
                int64_t n, int64_t i_begin, int64_t i_end);

/// c[i,j] = ScoreDot(a[i,:], b[j,:]) for a [m,k], b [n,k], bitwise, in both
/// modes.
void MatmulTransposeBRows(const float* a, const float* b, float* c, int64_t k,
                          int64_t n, int64_t i_begin, int64_t i_end);

/// c[i,:] = a[:,i]^T @ b for a [k,m], b [k,n].
void MatmulTransposeARows(const float* a, const float* b, float* c, int64_t k,
                          int64_t m, int64_t n, int64_t i_begin,
                          int64_t i_end);

/// y[i] = ScoreDot(x, rows[i,:]) for a row-major rows [m, d] against one
/// query x (the scan shape behind NearestNeighbors, IVF probing and the PQ
/// lookup tables): the one-row case of MatmulTransposeBRows.
void Gemv(const float* rows, int64_t m, int64_t d, const float* x, float* y);

/// Writes the positions i in [0, m) with scores[i] >= threshold into
/// out[0..cap), ascending. Returns how many matched — or cap + 1 the
/// moment more than cap match (out contents are then unspecified).
/// threshold must not be NaN; NaN scores never match. This is the scan
/// under tmath::TopK's sampled prefilter; it dispatches on
/// ActiveSimdLevel() (mode-independent — the match set is a pure
/// predicate, so AVX2 changes only the scan speed, never the result).
int64_t FilterGe(const float* scores, int64_t m, float threshold,
                 int64_t cap, int64_t* out);

}  // namespace kernels

}  // namespace sdea::tmath

#endif  // SDEA_TENSOR_KERNELS_H_
