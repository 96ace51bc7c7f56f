#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "base/check.h"

namespace sdea::tmath {
namespace {

// Portable exact-contract row kernels (tensor.h): every output element
// accumulates its k products in double, in ascending-k order, with no term
// skipped, and rounds to float once. The AVX2 kernels reproduce these bits
// for every non-NaN output.

// c[i,:] = a[i,:] @ b for a [m,k], b [k,n]; k-j inner order streams b rows.
void MatmulRowsExactScalar(const float* a, const float* b, float* c,
                           int64_t k, int64_t n, int64_t i_begin,
                           int64_t i_end) {
  std::vector<double> acc(static_cast<size_t>(n));
  for (int64_t i = i_begin; i < i_end; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        acc[static_cast<size_t>(j)] += aik * brow[j];
      }
    }
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = static_cast<float>(acc[static_cast<size_t>(j)]);
    }
  }
}

// c[i,j] = a[i,:] . b[j,:] for a [m,k], b [n,k].
void MatmulTransposeBRowsExactScalar(const float* a, const float* b, float* c,
                                     int64_t k, int64_t n, int64_t i_begin,
                                     int64_t i_end) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      c[i * n + j] =
          static_cast<float>(kernels::DotExact(a + i * k, b + j * k, k));
    }
  }
}

// c[i,:] = a[:,i]^T @ b for a [k,m], b [k,n]; a is read column-wise.
void MatmulTransposeARowsExactScalar(const float* a, const float* b, float* c,
                                     int64_t k, int64_t m, int64_t n,
                                     int64_t i_begin, int64_t i_end) {
  std::vector<double> acc(static_cast<size_t>(n));
  for (int64_t i = i_begin; i < i_end; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int64_t kk = 0; kk < k; ++kk) {
      const double aik = a[kk * m + i];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        acc[static_cast<size_t>(j)] += aik * brow[j];
      }
    }
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = static_cast<float>(acc[static_cast<size_t>(j)]);
    }
  }
}

// Scalar fast-mode dot: four independent float accumulators (ILP without
// changing the tree per element count), combined low-to-high at the end.
// This is the honest portable baseline the AVX2 path is benchmarked
// against, not a deliberately slow strawman.
float DotFastScalar(const float* a, const float* b, int64_t d) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  int64_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float total = (acc0 + acc1) + (acc2 + acc3);
  for (; i < d; ++i) total += a[i] * b[i];
  return total;
}

// Scalar fast-mode i-k-j matmul: float row accumulator, k ascending. The
// compiler is free to vectorize the j loop; the per-element tree stays
// "one add per k" either way.
void MatmulRowsFastScalar(const float* a, const float* b, float* c, int64_t k,
                          int64_t n, int64_t i_begin, int64_t i_end) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void MatmulTransposeBRowsFastScalar(const float* a, const float* b, float* c,
                                    int64_t k, int64_t n, int64_t i_begin,
                                    int64_t i_end) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = DotFastScalar(arow, b + j * k, k);
    }
  }
}

void MatmulTransposeARowsFastScalar(const float* a, const float* b, float* c,
                                    int64_t k, int64_t m, int64_t n,
                                    int64_t i_begin, int64_t i_end) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = a[kk * m + i];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

int64_t FilterGeScalar(const float* scores, int64_t m, float threshold,
                       int64_t cap, int64_t* out) {
  int64_t w = 0;
  for (int64_t i = 0; i < m; ++i) {
    if (scores[i] >= threshold) {
      if (w == cap) return cap + 1;
      out[w++] = i;
    }
  }
  return w;
}

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

SimdLevel ResolveInitialSimdLevel() {
  const char* env = std::getenv("SDEA_SIMD");
  if (env != nullptr) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
      return SimdLevel::kScalar;
    }
    if (std::strcmp(env, "avx2") == 0) {
      // Forcing a level the machine can't run is a setup error worth
      // failing loudly on (a silent scalar fallback would quietly void a
      // "measured with AVX2" claim).
      SDEA_CHECK_MSG(Avx2Supported(),
                     "SDEA_SIMD=avx2 but AVX2+FMA is unavailable "
                     "(compiled_in=%d)",
                     Avx2CompiledIn() ? 1 : 0);
      return SimdLevel::kAvx2;
    }
  }
  return Avx2Supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

KernelMode ResolveInitialKernelMode() {
  const char* env = std::getenv("SDEA_KERNEL_MODE");
  if (env != nullptr && std::strcmp(env, "fast") == 0) {
    return KernelMode::kFast;
  }
  return KernelMode::kExact;
}

std::atomic<SimdLevel>& SimdLevelFlag() {
  static std::atomic<SimdLevel> level{ResolveInitialSimdLevel()};
  return level;
}

std::atomic<KernelMode>& KernelModeFlag() {
  static std::atomic<KernelMode> mode{ResolveInitialKernelMode()};
  return mode;
}

}  // namespace

#ifdef SDEA_HAVE_AVX2_TU
// Implemented in kernels_avx2.cc, the only TU compiled with -mavx2 -mfma.
// Never called unless CPUID reported AVX2+FMA (see dispatch below).
namespace kernels {
void MatmulRowsExactAvx2(const float* a, const float* b, float* c, int64_t k,
                         int64_t n, int64_t i_begin, int64_t i_end);
void MatmulTransposeBRowsExactAvx2(const float* a, const float* b, float* c,
                                   int64_t k, int64_t n, int64_t i_begin,
                                   int64_t i_end);
void MatmulTransposeARowsExactAvx2(const float* a, const float* b, float* c,
                                   int64_t k, int64_t m, int64_t n,
                                   int64_t i_begin, int64_t i_end);
float DotFastAvx2(const float* a, const float* b, int64_t d);
void MatmulRowsFastAvx2(const float* a, const float* b, float* c, int64_t k,
                        int64_t n, int64_t i_begin, int64_t i_end);
void MatmulTransposeBRowsFastAvx2(const float* a, const float* b, float* c,
                                  int64_t k, int64_t n, int64_t i_begin,
                                  int64_t i_end);
void MatmulTransposeARowsFastAvx2(const float* a, const float* b, float* c,
                                  int64_t k, int64_t m, int64_t n,
                                  int64_t i_begin, int64_t i_end);
int64_t FilterGeAvx2(const float* scores, int64_t m, float threshold,
                     int64_t cap, int64_t* out);
}  // namespace kernels
#endif

bool Avx2CompiledIn() {
#ifdef SDEA_HAVE_AVX2_TU
  return true;
#else
  return false;
#endif
}

bool Avx2Supported() { return Avx2CompiledIn() && CpuHasAvx2Fma(); }

SimdLevel ActiveSimdLevel() {
  return SimdLevelFlag().load(std::memory_order_relaxed);
}

void SetSimdLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2) SDEA_CHECK(Avx2Supported());
  SimdLevelFlag().store(level, std::memory_order_relaxed);
}

KernelMode ActiveKernelMode() {
  return KernelModeFlag().load(std::memory_order_relaxed);
}

void SetKernelMode(KernelMode mode) {
  KernelModeFlag().store(mode, std::memory_order_relaxed);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kExact:
      return "exact";
    case KernelMode::kFast:
      return "fast";
  }
  return "unknown";
}

namespace kernels {

double DotExact(const float* a, const float* b, int64_t d) {
  double s = 0.0;
  for (int64_t i = 0; i < d; ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return s;
}

float DotFast(const float* a, const float* b, int64_t d) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) return DotFastAvx2(a, b, d);
#endif
  return DotFastScalar(a, b, d);
}

float ScoreDot(const float* a, const float* b, int64_t d) {
  if (ActiveKernelMode() == KernelMode::kFast) return DotFast(a, b, d);
  return static_cast<float>(DotExact(a, b, d));
}

void MatmulRows(const float* a, const float* b, float* c, int64_t k,
                int64_t n, int64_t i_begin, int64_t i_end) {
  const bool fast = ActiveKernelMode() == KernelMode::kFast;
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    (fast ? MatmulRowsFastAvx2 : MatmulRowsExactAvx2)(a, b, c, k, n, i_begin,
                                                      i_end);
    return;
  }
#endif
  (fast ? MatmulRowsFastScalar : MatmulRowsExactScalar)(a, b, c, k, n,
                                                        i_begin, i_end);
}

void MatmulTransposeBRows(const float* a, const float* b, float* c, int64_t k,
                          int64_t n, int64_t i_begin, int64_t i_end) {
  const bool fast = ActiveKernelMode() == KernelMode::kFast;
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    (fast ? MatmulTransposeBRowsFastAvx2 : MatmulTransposeBRowsExactAvx2)(
        a, b, c, k, n, i_begin, i_end);
    return;
  }
#endif
  (fast ? MatmulTransposeBRowsFastScalar : MatmulTransposeBRowsExactScalar)(
      a, b, c, k, n, i_begin, i_end);
}

void MatmulTransposeARows(const float* a, const float* b, float* c, int64_t k,
                          int64_t m, int64_t n, int64_t i_begin,
                          int64_t i_end) {
  const bool fast = ActiveKernelMode() == KernelMode::kFast;
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    (fast ? MatmulTransposeARowsFastAvx2 : MatmulTransposeARowsExactAvx2)(
        a, b, c, k, m, n, i_begin, i_end);
    return;
  }
#endif
  (fast ? MatmulTransposeARowsFastScalar : MatmulTransposeARowsExactScalar)(
      a, b, c, k, m, n, i_begin, i_end);
}

void Gemv(const float* rows, int64_t m, int64_t d, const float* x, float* y) {
  MatmulTransposeBRows(x, rows, y, d, m, 0, 1);
}

int64_t FilterGe(const float* scores, int64_t m, float threshold, int64_t cap,
                 int64_t* out) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return FilterGeAvx2(scores, m, threshold, cap, out);
  }
#endif
  return FilterGeScalar(scores, m, threshold, cap, out);
}

}  // namespace kernels
}  // namespace sdea::tmath
