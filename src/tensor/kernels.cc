#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
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

bool TransEStepScalar(const kernels::TransERows& w, int64_t d, float margin,
                      float lr) {
  float d_pos = 0.0f;
  float d_neg = 0.0f;
  for (int64_t k = 0; k < d; ++k) {
    const float dp = w.h[k] + w.r[k] - w.t[k];
    const float dn = w.hn[k] + w.r[k] - w.tn[k];
    d_pos += dp * dp;
    d_neg += dn * dn;
  }
  if (margin + d_pos - d_neg <= 0.0f) return false;  // Hinge inactive.
  for (int64_t k = 0; k < d; ++k) {
    const float gp = 2.0f * (w.h[k] + w.r[k] - w.t[k]);
    const float gn = 2.0f * (w.hn[k] + w.r[k] - w.tn[k]);
    if (w.write_h) w.h[k] -= lr * gp;
    if (w.write_t) w.t[k] += lr * gp;
    if (w.write_hn) w.hn[k] += lr * gn;
    if (w.write_tn) w.tn[k] -= lr * gn;
    if (w.write_r) w.r[k] -= lr * (gp - gn);
  }
  return true;
}

void GloveStepScalar(const kernels::GloveRows& r, int64_t d, float weight,
                     float log_x, float lr) {
  float dot = 0.0f;
  for (int64_t k = 0; k < d; ++k) dot += r.w[k] * r.c[k];
  const float err = dot + *r.bw + *r.bc - log_x;
  const float coeff = weight * err;
  for (int64_t k = 0; k < d; ++k) {
    const float grad_w = coeff * r.c[k];
    const float grad_c = coeff * r.w[k];
    r.gw[k] += grad_w * grad_w;
    r.gc[k] += grad_c * grad_c;
    r.w[k] -= lr * grad_w / std::sqrt(r.gw[k]);
    r.c[k] -= lr * grad_c / std::sqrt(r.gc[k]);
  }
  *r.gbw += coeff * coeff;
  *r.gbc += coeff * coeff;
  *r.bw -= lr * coeff / std::sqrt(*r.gbw);
  *r.bc -= lr * coeff / std::sqrt(*r.gbc);
}

void ReluInPlaceScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::max(0.0f, x[i]);
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

std::atomic<SimdLevel>& SimdLevelFlag() {
  static std::atomic<SimdLevel> level{ResolveInitialSimdLevel()};
  return level;
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
int64_t FilterGeAvx2(const float* scores, int64_t m, float threshold,
                     int64_t cap, int64_t* out);
bool TransEStepAvx2(const TransERows& rows, int64_t d, float margin,
                    float lr);
void GloveStepAvx2(const GloveRows& rows, int64_t d, float weight,
                   float log_x, float lr);
void ReluInPlaceAvx2(float* x, int64_t n);
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

KernelMode ActiveKernelMode() { return KernelMode::kExact; }

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

float ScoreDot(const float* a, const float* b, int64_t d) {
  return static_cast<float>(DotExact(a, b, d));
}

void MatmulRows(const float* a, const float* b, float* c, int64_t k,
                int64_t n, int64_t i_begin, int64_t i_end) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    MatmulRowsExactAvx2(a, b, c, k, n, i_begin, i_end);
    return;
  }
#endif
  MatmulRowsExactScalar(a, b, c, k, n, i_begin, i_end);
}

void MatmulTransposeBRows(const float* a, const float* b, float* c, int64_t k,
                          int64_t n, int64_t i_begin, int64_t i_end) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    MatmulTransposeBRowsExactAvx2(a, b, c, k, n, i_begin, i_end);
    return;
  }
#endif
  MatmulTransposeBRowsExactScalar(a, b, c, k, n, i_begin, i_end);
}

void MatmulTransposeARows(const float* a, const float* b, float* c, int64_t k,
                          int64_t m, int64_t n, int64_t i_begin,
                          int64_t i_end) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    MatmulTransposeARowsExactAvx2(a, b, c, k, m, n, i_begin, i_end);
    return;
  }
#endif
  MatmulTransposeARowsExactScalar(a, b, c, k, m, n, i_begin, i_end);
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

bool TransEStep(const TransERows& rows, int64_t d, float margin, float lr) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return TransEStepAvx2(rows, d, margin, lr);
  }
#endif
  return TransEStepScalar(rows, d, margin, lr);
}

void GloveStep(const GloveRows& rows, int64_t d, float weight, float log_x,
               float lr) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    GloveStepAvx2(rows, d, weight, log_x, lr);
    return;
  }
#endif
  GloveStepScalar(rows, d, weight, log_x, lr);
}

void ReluInPlace(float* x, int64_t n) {
#ifdef SDEA_HAVE_AVX2_TU
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    ReluInPlaceAvx2(x, n);
    return;
  }
#endif
  ReluInPlaceScalar(x, n);
}

}  // namespace kernels
}  // namespace sdea::tmath
