#ifndef SDEA_TENSOR_KERNELS_H_
#define SDEA_TENSOR_KERNELS_H_

#include <cstdint>

namespace sdea::tmath {

/// Instruction set the kernels run with. Resolved once at startup from the
/// SDEA_SIMD environment variable ("off"/"scalar" force the portable path,
/// "avx2" forces AVX2, anything else / unset auto-detects via CPUID) and
/// overridable per-process with SetSimdLevel (tests, benches). The level
/// changes only the speed: the AVX2 row kernels give the scalar kernels'
/// bits for every non-NaN output and NaN in the same positions.
enum class SimdLevel {
  kScalar = 0,  ///< Portable C++; compiled into every build.
  kAvx2 = 1,    ///< AVX2+FMA intrinsics; used only when CPUID reports both.
};

/// The one accumulation contract every kernel keeps: each output element
/// accumulates its k partial products in double precision, ascending-k,
/// rounded to float once — bitwise identical for every thread count, SIMD
/// level and machine. NaN payloads are the one exception: which of two NaN
/// operands propagates follows instruction operand order, so only NaN
/// positions are pinned.
///
/// There is no other mode. The enum, ActiveKernelMode() and
/// KernelModeName() remain only because the repository benchmark stamps
/// them into every result's context line; nothing in the library branches
/// on them.
enum class KernelMode {
  kExact = 0,
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

/// Always KernelMode::kExact (see KernelMode).
KernelMode ActiveKernelMode();

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

/// The similarity used by every ranking site (candidate generation,
/// embedding-store scans, the exact rerank): DotExact rounded to float
/// once, so every site agrees bitwise with the MatmulTransposeB score
/// matrix.
float ScoreDot(const float* a, const float* b, int64_t d);

/// Row-range matmuls underneath tmath::Matmul*, dispatched on
/// ActiveSimdLevel(). Each writes output rows [i_begin, i_end) only, so
/// callers shard rows across threads with bitwise-stable results.

/// c[i,:] = a[i,:] @ b for a [m,k], b [k,n].
void MatmulRows(const float* a, const float* b, float* c, int64_t k,
                int64_t n, int64_t i_begin, int64_t i_end);

/// c[i,j] = ScoreDot(a[i,:], b[j,:]) for a [m,k], b [n,k], bitwise.
void MatmulTransposeBRows(const float* a, const float* b, float* c, int64_t k,
                          int64_t n, int64_t i_begin, int64_t i_end);

/// c[i,:] = a[:,i]^T @ b for a [k,m], b [k,n].
void MatmulTransposeARows(const float* a, const float* b, float* c, int64_t k,
                          int64_t m, int64_t n, int64_t i_begin,
                          int64_t i_end);

/// y[i] = ScoreDot(x, rows[i,:]) for a row-major rows [m, d] against one
/// query x (the scan shape behind NearestNeighbors): the one-row case of
/// MatmulTransposeBRows.
void Gemv(const float* rows, int64_t m, int64_t d, const float* x, float* y);

/// Writes the positions i in [0, m) with scores[i] >= threshold into
/// out[0..cap), ascending. Returns how many matched — or cap + 1 the
/// moment more than cap match (out contents are then unspecified).
/// threshold must not be NaN; NaN scores never match. This is the scan
/// under tmath::TopK's sampled prefilter; it dispatches on
/// ActiveSimdLevel() (the match set is a pure predicate, so AVX2 changes
/// only the scan speed, never the result).
int64_t FilterGe(const float* scores, int64_t m, float threshold,
                 int64_t cap, int64_t* out);

}  // namespace kernels

}  // namespace sdea::tmath

#endif  // SDEA_TENSOR_KERNELS_H_
