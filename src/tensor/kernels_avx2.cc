// The only translation unit compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt). Nothing here runs unless runtime dispatch in
// kernels.cc confirmed CPUID reports AVX2+FMA, so these functions may use
// the intrinsics unconditionally.
//
// Exact-mode kernels keep the exact contract of tensor.h: one double
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
// Fast-mode determinism note: every kernel's reduction tree is a pure
// function of the operand shapes — fixed unroll widths, fixed combine
// order — so for a given SimdLevel the fast mode stays
// bitwise-reproducible across runs and thread counts (callers shard
// disjoint output rows). FMA keeps the full product precision before
// adding, which is why fast-AVX2 and fast-scalar differ in the last ulps;
// the tolerance tests bound that gap against exact mode.
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sdea::tmath::kernels {
namespace {

// Sums the 8 lanes: (lo+hi) pairwise, matching _mm_hadd order. The combine
// order is fixed, part of the fast-AVX2 reduction tree.
inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_hadd_ps(s, s);
  s = _mm_hadd_ps(s, s);
  return _mm_cvtss_f32(s);
}

// --- Exact contract ---------------------------------------------------------
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

float DotFastAvx2(const float* a, const float* b, int64_t d) {
  // Four 8-lane FMA accumulators (32 floats per step) hide FMA latency;
  // the tail first drains 8-wide into acc0, then scalar into the total.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float total =
      HorizontalSum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                  _mm256_add_ps(acc2, acc3)));
  for (; i < d; ++i) total += a[i] * b[i];
  return total;
}

void MatmulRowsFastAvx2(const float* a, const float* b, float* c, int64_t k,
                        int64_t n, int64_t i_begin, int64_t i_end) {
  // i-k-j with the j loop 8-wide: per output element the accumulation is
  // still one FMA per k, ascending, into a float row accumulator. B rows
  // are streamed once per output row; for the [m<=1k, k<=1k] shapes here
  // the B panel lives in L2, so the k-ascending order doubles as the
  // cache-blocked order.
  for (int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) _mm256_storeu_ps(crow + j, _mm256_setzero_ps());
    for (; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 aik = _mm256_set1_ps(arow[kk]);
      const float* brow = b + kk * n;
      j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            crow + j, _mm256_fmadd_ps(aik, _mm256_loadu_ps(brow + j),
                                      _mm256_loadu_ps(crow + j)));
      }
      const float aik_s = arow[kk];
      for (; j < n; ++j) crow[j] += aik_s * brow[j];
    }
  }
}

void MatmulTransposeBRowsFastAvx2(const float* a, const float* b, float* c,
                                  int64_t k, int64_t n, int64_t i_begin,
                                  int64_t i_end) {
  // Per-pair DotFastAvx2 keeps the reduction tree identical to the
  // ScoreDot fast path, so ranking sites agree bitwise with this score
  // matrix (the cross-site contract tensor_kernels_test pins).
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = DotFastAvx2(arow, b + j * k, k);
    }
  }
}

void MatmulTransposeARowsFastAvx2(const float* a, const float* b, float* c,
                                  int64_t k, int64_t m, int64_t n,
                                  int64_t i_begin, int64_t i_end) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) _mm256_storeu_ps(crow + j, _mm256_setzero_ps());
    for (; j < n; ++j) crow[j] = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik_s = a[kk * m + i];
      const __m256 aik = _mm256_set1_ps(aik_s);
      const float* brow = b + kk * n;
      j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            crow + j, _mm256_fmadd_ps(aik, _mm256_loadu_ps(brow + j),
                                      _mm256_loadu_ps(crow + j)));
      }
      for (; j < n; ++j) crow[j] += aik_s * brow[j];
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

}  // namespace sdea::tmath::kernels
