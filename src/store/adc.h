#ifndef SDEA_STORE_ADC_H_
#define SDEA_STORE_ADC_H_

#include <cstdint>

#include "store/quantizer.h"

namespace sdea::store {

/// Asymmetric distance computation: the query stays full-precision, the
/// database rows stay compressed, and the scan scores codes directly —
/// no row is ever decompressed. Both scans dispatch like the tensor
/// kernels do:
///
///   - kExact mode accumulates in double, ascending, rounded to float
///     once per row — bitwise identical on every machine and SIMD level
///     (matching kernels::DotExact's contract).
///   - kFast mode accumulates in float; the int8 scan additionally
///     dispatches on tmath::ActiveSimdLevel() to an AVX2 TU whose fixed
///     reduction tree differs from scalar by O(d*eps), same as DotFast.
///     The PQ scan's AVX2 path vectorizes ACROSS rows (one lane per row,
///     subspaces ascending per lane), so it is bitwise identical to the
///     scalar fast path.
///
/// Like the kernels, the scans are serial over their row range; callers
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

/// Per-query PQ lookup table: lut[s*k + c] = ScoreDot of the query's
/// s-th subvector with centroid c of subspace s. Goes through
/// kernels::ScoreDot, so the table inherits the active kernel mode.
/// `lut` must hold pq_subspaces * pq_centroids floats; `codebook` must be
/// a PQ codebook.
void PqBuildLut(const float* q, const Codebook& codebook, float* lut);

/// out[i] = sum_s lut[s*k + codes[i*m + s]] for i in [0, n): m table
/// lookups and adds per row, independent of dim.
void AdcScanPq(const uint8_t* codes, int64_t n, int64_t m, int64_t k,
               const float* lut, float* out);

/// ADC scores of `rows` code rows against the normalized query `q`,
/// whichever quantization `codebook` holds: builds the query-side table
/// (the scale-folded int8 query or the PQ LUT), then runs the scan.
void AdcScan(const Codebook& codebook, const float* q, const uint8_t* codes,
             int64_t rows, float* out);

namespace internal {

/// AVX2 TU entry points (store/adc_avx2.cc); only called when runtime
/// dispatch confirmed AVX2+FMA support. Fast-mode contracts above.
void AdcScanInt8Avx2(const uint8_t* codes, int64_t n, int64_t d,
                     const float* q_scaled, float* out);
void AdcScanPqAvx2(const uint8_t* codes, int64_t n, int64_t m, int64_t k,
                   const float* lut, float* out);

}  // namespace internal

}  // namespace sdea::store

#endif  // SDEA_STORE_ADC_H_
