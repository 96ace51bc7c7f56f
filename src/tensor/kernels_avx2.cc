// The only translation unit compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt). Nothing here runs unless runtime dispatch in
// kernels.cc confirmed CPUID reports AVX2+FMA, so these functions may use
// the intrinsics unconditionally.
//
// The kernels keep the exact contract of tensor.h: one double
// accumulator per output element, ascending k, rounded to float once.
// A float x float product is exact in double (two 24-bit significands
// need 48 of 53 bits, and no product of finite floats leaves double's
// normal range), so vfmadd231pd rounds each step exactly like the scalar
// loop's multiply-then-add. Four output elements share a __m256d, one per
// lane, so no element's sum is ever split or reassociated. The outputs
// have the same bits as the scalar kernels except for NaN payloads: which
// of two NaN operands propagates depends on instruction operand order,
// so only NaN *positions* are part of the contract.
//
// TransEStepAvx2 and GloveStepAvx2 are float arithmetic, not dot products
// under the double contract: they give the portable steps' bits because
// every lane performs the portable loop's operations on one element in
// the same order, and their float sums add the lanes one at a time. That
// holds only while the compiler fuses no multiply into an add, which is
// why this TU builds with -ffp-contract=off.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/kernels.h"

namespace sdea::tmath::kernels {
namespace {

// The left operand is read through strides: element (i, kk) is
// a[i * si + kk * sk]. Matmul passes a row-major [m, k] a (si = k,
// sk = 1), MatmulTransposeA a row-major [k, m] one (si = 1, sk = m).

// One output element, ascending k: the tail for columns the 4-wide blocks
// leave over.
inline float ExactDot(const float* a, int64_t sk, const float* b, int64_t ldb,
                      int64_t k) {
  double s = 0.0;
  for (int64_t kk = 0; kk < k; ++kk) {
    s += static_cast<double>(a[kk * sk]) * b[kk * ldb];
  }
  return static_cast<float>(s);
}

// R rows x 4V columns of c; acc[r][v] holds columns 4v..4v+3 of row r, one
// output element per lane.
template <int R, int V>
inline void ExactBlock(const float* a, int64_t si, int64_t sk, const float* b,
                       int64_t ldb, float* c, int64_t ldc, int64_t k) {
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    __m256d bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm256_cvtps_pd(_mm_loadu_ps(brow + 4 * v));
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d ar =
          _mm256_set1_pd(static_cast<double>(a[r * si + kk * sk]));
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_pd(ar, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      _mm_storeu_ps(c + r * ldc + 4 * v, _mm256_cvtpd_ps(acc[r][v]));
    }
  }
}

// c[i, j] = sum over ascending kk of a(i, kk) * b[kk * ldb + j], for rows
// [i_begin, i_end) and columns [0, n), c at row stride ldc. Four rows go 8
// columns at a time; a single row goes 32 at a time, so eight independent
// accumulators hide the FMA latency of a one-row GRU step. 4-column blocks
// and scalar tails finish each row.
void ExactRows(const float* a, int64_t si, int64_t sk, const float* b,
               int64_t ldb, float* c, int64_t ldc, int64_t k, int64_t n,
               int64_t i_begin, int64_t i_end) {
  if (k == 0) {  // Empty sums; b may be null, so form no pointer into it.
    for (int64_t i = i_begin; i < i_end; ++i) {
      std::fill_n(c + i * ldc, n, 0.0f);
    }
    return;
  }
  int64_t i = i_begin;
  for (; i + 4 <= i_end; i += 4) {
    const float* ai = a + i * si;
    float* ci = c + i * ldc;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      ExactBlock<4, 2>(ai, si, sk, b + j, ldb, ci + j, ldc, k);
    }
    for (; j + 4 <= n; j += 4) {
      ExactBlock<4, 1>(ai, si, sk, b + j, ldb, ci + j, ldc, k);
    }
    for (; j < n; ++j) {
      for (int64_t r = 0; r < 4; ++r) {
        ci[r * ldc + j] = ExactDot(ai + r * si, sk, b + j, ldb, k);
      }
    }
  }
  for (; i < i_end; ++i) {
    const float* ai = a + i * si;
    float* ci = c + i * ldc;
    int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      ExactBlock<1, 8>(ai, si, sk, b + j, ldb, ci + j, ldc, k);
    }
    for (; j + 8 <= n; j += 8) {
      ExactBlock<1, 2>(ai, si, sk, b + j, ldb, ci + j, ldc, k);
    }
    for (; j + 4 <= n; j += 4) {
      ExactBlock<1, 1>(ai, si, sk, b + j, ldb, ci + j, ldc, k);
    }
    for (; j < n; ++j) ci[j] = ExactDot(ai, sk, b + j, ldb, k);
  }
}

// Rows [0, w) of a row-major [w, k] b as a k-major panel,
// p[kk * w + jj] = b[jj * k + kk], four rows at a time through 4x4
// transposes. w must be a multiple of 4.
void PackPanel(const float* b, int64_t k, int64_t w, float* p) {
  for (int64_t g = 0; g < w; g += 4) {
    const float* r0 = b + g * k;
    const float* r1 = r0 + k;
    const float* r2 = r1 + k;
    const float* r3 = r2 + k;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      __m128 x0 = _mm_loadu_ps(r0 + kk);
      __m128 x1 = _mm_loadu_ps(r1 + kk);
      __m128 x2 = _mm_loadu_ps(r2 + kk);
      __m128 x3 = _mm_loadu_ps(r3 + kk);
      _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
      float* pk = p + kk * w + g;
      _mm_storeu_ps(pk, x0);
      _mm_storeu_ps(pk + w, x1);
      _mm_storeu_ps(pk + 2 * w, x2);
      _mm_storeu_ps(pk + 3 * w, x3);
    }
    for (; kk < k; ++kk) {
      float* pk = p + kk * w + g;
      pk[0] = r0[kk];
      pk[1] = r1[kk];
      pk[2] = r2[kk];
      pk[3] = r3[kk];
    }
  }
}

// s + v[0] + v[1] + ... + v[7], added left to right in float: the portable
// loop's ascending-k sum over eight consecutive k, with no tree add.
inline float AddLanesInOrder(float s, __m256 v) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, v);
#pragma GCC unroll 8
  for (int l = 0; l < 8; ++l) s += lanes[l];
  return s;
}

}  // namespace

void MatmulRowsExactAvx2(const float* a, const float* b, float* c, int64_t k,
                         int64_t n, int64_t i_begin, int64_t i_end) {
  ExactRows(a, k, 1, b, n, c, n, k, n, i_begin, i_end);
}

void MatmulTransposeARowsExactAvx2(const float* a, const float* b, float* c,
                                   int64_t k, int64_t m, int64_t n,
                                   int64_t i_begin, int64_t i_end) {
  ExactRows(a, 1, m, b, n, c, n, k, n, i_begin, i_end);
}

void MatmulTransposeBRowsExactAvx2(const float* a, const float* b, float* c,
                                   int64_t k, int64_t n, int64_t i_begin,
                                   int64_t i_end) {
  // b is [n, k]: each lane needs its own column's ascending-k stream, so b
  // is fed to ExactRows 32 rows at a time as a k-major panel. The panel is
  // the only copy (32 * k floats per thread); a whole transposed b would
  // cost a b-sized allocation per call, megabytes for an 18k-row table.
  // Columns past the last multiple of 4 are plain ascending dots.
  constexpr int64_t kPanel = 32;
  thread_local std::vector<float> panel;
  if (panel.size() < static_cast<size_t>(kPanel * k)) {
    panel.resize(static_cast<size_t>(kPanel * k));
  }
  for (int64_t j0 = 0; j0 < n; j0 += kPanel) {
    const int64_t w = std::min(kPanel, n - j0);
    const int64_t wv = w & ~int64_t{3};
    if (wv > 0) {
      PackPanel(b + j0 * k, k, wv, panel.data());
      ExactRows(a, k, 1, panel.data(), wv, c + j0, n, k, wv, i_begin, i_end);
    }
    for (int64_t j = j0 + wv; j < j0 + w; ++j) {
      for (int64_t i = i_begin; i < i_end; ++i) {
        c[i * n + j] = ExactDot(a + i * k, 1, b + j * k, 1, k);
      }
    }
  }
}

int64_t FilterGeAvx2(const float* scores, int64_t m, float threshold,
                     int64_t cap, int64_t* out) {
  // 8-wide compare + movemask; lanes are drained in order so the output
  // positions stay ascending and identical to the scalar scan. _CMP_GE_OQ
  // is quiet-ordered: NaN lanes never match, exactly like scalar `>=`.
  // The per-lane loop only runs on a hit, which is rare by construction
  // (the caller's threshold comes from a 4096-point sample max).
  int64_t w = 0;
  const __m256 t = _mm256_set1_ps(threshold);
  int64_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256 f = _mm256_loadu_ps(scores + i);
    const int hits = _mm256_movemask_ps(_mm256_cmp_ps(f, t, _CMP_GE_OQ));
    if (hits) {
      for (int lane = 0; lane < 8; ++lane) {
        if (!(hits & (1 << lane))) continue;
        if (w == cap) return cap + 1;
        out[w++] = i + lane;
      }
    }
  }
  for (; i < m; ++i) {
    if (scores[i] >= threshold) {
      if (w == cap) return cap + 1;
      out[w++] = i;
    }
  }
  return w;
}

bool TransEStepAvx2(const TransERows& w, int64_t d, float margin, float lr) {
  float d_pos = 0.0f;
  float d_neg = 0.0f;
  int64_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 r = _mm256_loadu_ps(w.r + k);
    const __m256 dp = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(w.h + k), r), _mm256_loadu_ps(w.t + k));
    const __m256 dn =
        _mm256_sub_ps(_mm256_add_ps(_mm256_loadu_ps(w.hn + k), r),
                      _mm256_loadu_ps(w.tn + k));
    d_pos = AddLanesInOrder(d_pos, _mm256_mul_ps(dp, dp));
    d_neg = AddLanesInOrder(d_neg, _mm256_mul_ps(dn, dn));
  }
  for (; k < d; ++k) {
    const float dp = w.h[k] + w.r[k] - w.t[k];
    const float dn = w.hn[k] + w.r[k] - w.tn[k];
    d_pos += dp * dp;
    d_neg += dn * dn;
  }
  if (margin + d_pos - d_neg <= 0.0f) return false;  // Hinge inactive.

  // Each write loads its row again after the writes before it, so a row
  // that aliases an earlier one sees its update, as in the portable loop.
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 vlr = _mm256_set1_ps(lr);
  for (k = 0; k + 8 <= d; k += 8) {
    const __m256 r = _mm256_loadu_ps(w.r + k);
    const __m256 gp = _mm256_mul_ps(
        two, _mm256_sub_ps(_mm256_add_ps(_mm256_loadu_ps(w.h + k), r),
                           _mm256_loadu_ps(w.t + k)));
    const __m256 gn = _mm256_mul_ps(
        two, _mm256_sub_ps(_mm256_add_ps(_mm256_loadu_ps(w.hn + k), r),
                           _mm256_loadu_ps(w.tn + k)));
    const __m256 step_p = _mm256_mul_ps(vlr, gp);
    const __m256 step_n = _mm256_mul_ps(vlr, gn);
    if (w.write_h) {
      _mm256_storeu_ps(w.h + k,
                       _mm256_sub_ps(_mm256_loadu_ps(w.h + k), step_p));
    }
    if (w.write_t) {
      _mm256_storeu_ps(w.t + k,
                       _mm256_add_ps(_mm256_loadu_ps(w.t + k), step_p));
    }
    if (w.write_hn) {
      _mm256_storeu_ps(w.hn + k,
                       _mm256_add_ps(_mm256_loadu_ps(w.hn + k), step_n));
    }
    if (w.write_tn) {
      _mm256_storeu_ps(w.tn + k,
                       _mm256_sub_ps(_mm256_loadu_ps(w.tn + k), step_n));
    }
    if (w.write_r) {
      _mm256_storeu_ps(
          w.r + k, _mm256_sub_ps(_mm256_loadu_ps(w.r + k),
                                 _mm256_mul_ps(vlr, _mm256_sub_ps(gp, gn))));
    }
  }
  for (; k < d; ++k) {
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

void GloveStepAvx2(const GloveRows& r, int64_t d, float weight, float log_x,
                   float lr) {
  float dot = 0.0f;
  int64_t k = 0;
  for (; k + 8 <= d; k += 8) {
    dot = AddLanesInOrder(dot, _mm256_mul_ps(_mm256_loadu_ps(r.w + k),
                                             _mm256_loadu_ps(r.c + k)));
  }
  for (; k < d; ++k) dot += r.w[k] * r.c[k];
  const float err = dot + *r.bw + *r.bc - log_x;
  const float coeff = weight * err;

  // No row aliases another, so eight elements step at once; each lane runs
  // the portable loop's multiply, add, sqrt, divide and subtract, all
  // correctly rounded.
  const __m256 vcoeff = _mm256_set1_ps(coeff);
  const __m256 vlr = _mm256_set1_ps(lr);
  for (k = 0; k + 8 <= d; k += 8) {
    const __m256 w = _mm256_loadu_ps(r.w + k);
    const __m256 c = _mm256_loadu_ps(r.c + k);
    const __m256 grad_w = _mm256_mul_ps(vcoeff, c);
    const __m256 grad_c = _mm256_mul_ps(vcoeff, w);
    const __m256 gw =
        _mm256_add_ps(_mm256_loadu_ps(r.gw + k), _mm256_mul_ps(grad_w, grad_w));
    const __m256 gc =
        _mm256_add_ps(_mm256_loadu_ps(r.gc + k), _mm256_mul_ps(grad_c, grad_c));
    _mm256_storeu_ps(r.gw + k, gw);
    _mm256_storeu_ps(r.gc + k, gc);
    _mm256_storeu_ps(
        r.w + k, _mm256_sub_ps(w, _mm256_div_ps(_mm256_mul_ps(vlr, grad_w),
                                                _mm256_sqrt_ps(gw))));
    _mm256_storeu_ps(
        r.c + k, _mm256_sub_ps(c, _mm256_div_ps(_mm256_mul_ps(vlr, grad_c),
                                                _mm256_sqrt_ps(gc))));
  }
  for (; k < d; ++k) {
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

void ReluInPlaceAvx2(float* x, int64_t n) {
  // MAXPS returns its second operand when either is NaN or both are zeros,
  // so max(x, +0) is the portable std::max(0.0f, x) for every input.
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = std::max(0.0f, x[i]);
}

}  // namespace sdea::tmath::kernels
