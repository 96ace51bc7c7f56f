#ifndef SDEA_STORE_ADC_H_
#define SDEA_STORE_ADC_H_

#include <cstdint>

namespace sdea::store {

/// Asymmetric distance computation: the query stays full-precision, the
/// database rows stay int8 codes, and the scan scores codes directly —
/// no row is ever decompressed. The scan keeps the exact contract of
/// kernels::DotExact: per row, a double accumulator, terms added in
/// ascending order, rounded to float once. So every non-NaN score has the
/// same bits on every machine, SIMD level and thread count, and NaN
/// scores sit in the same positions. It dispatches on
/// tmath::ActiveSimdLevel() to an AVX2 kernel that gives each row its own
/// double lane.
///
/// Like the kernels, the scan is serial over its row range; callers
/// shard rows across threads for batch workloads.

/// Folds the per-dimension int8 scales into the query:
/// q_scaled[j] = q[j] * scales[j]. After this, the ADC score
/// sum_j q_scaled[j] * code[i][j] equals the dot product of q with the
/// dequantized row exactly (the scale multiplication is associated onto
/// the query side once, not per row).
void Int8PrepareQuery(const float* q, const float* scales, int64_t d,
                      float* q_scaled);

/// out[i] = sum_j q_scaled[j] * (int8)codes[i*d + j] for i in [0, n).
void AdcScanInt8(const uint8_t* codes, int64_t n, int64_t d,
                 const float* q_scaled, float* out);

namespace internal {

/// AVX2 TU entry point (store/adc_avx2.cc); only called when runtime
/// dispatch confirmed AVX2+FMA support. Same contract as AdcScanInt8, over
/// the whole 16-row blocks of [0, n) only: returns how many rows it scored
/// (n rounded down to a multiple of 16), and AdcScanInt8 scores the rest
/// with its scalar loop.
int64_t AdcScanInt8Avx2(const uint8_t* codes, int64_t n, int64_t d,
                        const float* q_scaled, float* out);

}  // namespace internal

}  // namespace sdea::store

#endif  // SDEA_STORE_ADC_H_
