// The store's only translation unit compiled with -mavx2 -mfma (see
// src/store/CMakeLists.txt), mirroring src/tensor/kernels_avx2.cc: nothing
// here runs unless runtime dispatch in adc.cc confirmed AVX2+FMA via
// tmath::ActiveSimdLevel(), so the intrinsics are used unconditionally.
//
// The int8 scan keeps the exact contract of adc.h: one double accumulator
// per row, codes added in ascending j, rounded to float once. Every row
// owns one double lane, so no row's sum is ever split or reassociated.
// The codes of 16 rows are transposed 8 at a time, so that one byte
// shuffle turns a code of each of four rows into a double. A float times
// an int8 is exact in double (24 + 8 significant bits), so vfmadd231pd
// rounds each step exactly like the scalar loop's multiply-then-add, and
// every non-NaN output has the scalar loop's bits. As in the tensor
// kernels, NaN payloads are not pinned, only NaN positions.
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace sdea::store::internal {
namespace {

// Rows per block: four groups of four rows, one __m256d accumulator each.
// Four independent FMA chains cover the FMA latency.
constexpr int kGroups = 4;
constexpr int64_t kBlockRows = 4 * kGroups;

// Lane 0 holds the 8 bytes at lo, lane 1 the 8 bytes at hi.
inline __m256i LoadPair(const uint8_t* lo, const uint8_t* hi) {
  const __m128i a = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lo));
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(hi));
  return _mm256_inserti128_si256(_mm256_castsi128_si256(a), b, 1);
}

// Adds codes [0, len) of the kBlockRows rows at r (row stride `stride`,
// 8 readable bytes per row) into acc; acc[g] holds rows 4g..4g+3.
//
// Per group, rows a b c d are interleaved to ab|cd pairs, one pair per
// 128-bit lane, and biased to u = code + 128. Each lane then holds 8 code
// bytes next to the constant bytes 0x00, 0x30, 0x43. For each j one
// vpshufb builds, per row, the double with bytes [u, 0, 0, 0, 0, 0, 0x30,
// 0x43], which is 2^52 + u exactly; subtracting 2^52 + 128 leaves the
// signed code, also exactly.
template <int kMaxLen>
inline void AccumulateChunk(const uint8_t* r, int64_t stride, const double* q,
                            int len, __m256d* acc) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i magic_bytes = _mm256_set1_epi64x(0x433000);
  const __m256d magic = _mm256_set1_pd(4503599627370496.0 + 128.0);
  // src[g][h] holds codes 4h..4h+3 of group g's rows.
  __m256i src[kGroups][2];
#pragma GCC unroll 4
  for (int g = 0; g < kGroups; ++g) {
    const uint8_t* p = r + 4 * g * stride;
    const __m256i ac = LoadPair(p, p + 2 * stride);
    const __m256i bd = LoadPair(p + stride, p + 3 * stride);
    const __m256i t = _mm256_xor_si256(_mm256_unpacklo_epi8(ac, bd), bias);
    src[g][0] = _mm256_unpacklo_epi64(t, magic_bytes);
    src[g][1] = _mm256_unpackhi_epi64(t, magic_bytes);
  }
#pragma GCC unroll 8
  for (int j = 0; j < kMaxLen; ++j) {
    if (j == len) break;
    const __m256d qj = _mm256_broadcast_sd(q + j);
    const char lo = static_cast<char>(2 * (j & 3));
    const char hi = static_cast<char>(2 * (j & 3) + 1);
    const __m256i pick = _mm256_setr_epi8(
        lo, 8, 8, 8, 8, 8, 9, 10, hi, 8, 8, 8, 8, 8, 9, 10,  //
        lo, 8, 8, 8, 8, 8, 9, 10, hi, 8, 8, 8, 8, 8, 9, 10);
#pragma GCC unroll 4
    for (int g = 0; g < kGroups; ++g) {
      const __m256d x =
          _mm256_castsi256_pd(_mm256_shuffle_epi8(src[g][j >> 2], pick));
      acc[g] = _mm256_fmadd_pd(qj, _mm256_sub_pd(x, magic), acc[g]);
    }
  }
}

// out[0, kBlockRows) for the kBlockRows rows at codes. The last d % 8
// codes of each row are copied into a zero-padded tile first, so no load
// reaches past a row's end.
void ScanBlock(const uint8_t* codes, int64_t d, const double* q,
               float* out) {
  __m256d acc[kGroups];
#pragma GCC unroll 4
  for (int g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
  int64_t j0 = 0;
  for (; j0 + 8 <= d; j0 += 8) {
    AccumulateChunk<8>(codes + j0, d, q + j0, 8, acc);
  }
  if (j0 < d) {
    const int len = static_cast<int>(d - j0);
    uint8_t tile[kBlockRows][8] = {};
    for (int64_t r = 0; r < kBlockRows; ++r) {
      std::memcpy(tile[r], codes + r * d + j0, static_cast<size_t>(len));
    }
    AccumulateChunk<7>(&tile[0][0], 8, q + j0, len, acc);
  }
  for (int g = 0; g < kGroups; ++g) {
    _mm_storeu_ps(out + 4 * g, _mm256_cvtpd_ps(acc[g]));
  }
}

}  // namespace

void AdcScanInt8Avx2(const uint8_t* codes, int64_t n, int64_t d,
                     const float* q_scaled, float* out) {
  const std::vector<double> q(q_scaled, q_scaled + d);
  int64_t i = 0;
  for (; i + kBlockRows <= n; i += kBlockRows) {
    ScanBlock(codes + i * d, d, q.data(), out + i);
  }
  if (i == n) return;
  // The last partial block runs on a zero-padded copy; the padding rows'
  // scores are dropped.
  const int64_t rest = n - i;
  std::vector<uint8_t> padded(static_cast<size_t>(kBlockRows * d), 0);
  std::copy_n(codes + i * d, rest * d, padded.begin());
  float scores[kBlockRows];
  ScanBlock(padded.data(), d, q.data(), scores);
  std::copy_n(scores, rest, out + i);
}

}  // namespace sdea::store::internal
