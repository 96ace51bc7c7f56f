#include "store/adc.h"

#include <vector>

#include "base/check.h"
#include "tensor/kernels.h"

namespace sdea::store {

void Int8PrepareQuery(const float* q, const float* scales, int64_t d,
                      float* q_scaled) {
  for (int64_t j = 0; j < d; ++j) q_scaled[j] = q[j] * scales[j];
}

void AdcScanInt8(const uint8_t* codes, int64_t n, int64_t d,
                 const float* q_scaled, float* out) {
#ifdef SDEA_HAVE_AVX2_TU
  if (tmath::ActiveSimdLevel() == tmath::SimdLevel::kAvx2) {
    internal::AdcScanInt8Avx2(codes, n, d, q_scaled, out);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t* code = codes + i * d;
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      acc += static_cast<double>(q_scaled[j]) *
             static_cast<double>(static_cast<int8_t>(code[j]));
    }
    out[i] = static_cast<float>(acc);
  }
}

void PqBuildLut(const float* q, const Codebook& codebook, float* lut) {
  SDEA_CHECK(codebook.kind() == Quantization::kPq);
  const int64_t m = codebook.pq_subspaces();
  const int64_t k = codebook.pq_centroids();
  const int64_t sub = codebook.pq_subdim();
  // One Gemv per subspace: centroid block s is a [k, sub] row-major
  // matrix, scored against the query's s-th subvector. Gemv keeps the
  // exact contract, so the LUT (and with it every ADC score) is bitwise
  // reproducible.
  for (int64_t s = 0; s < m; ++s) {
    tmath::kernels::Gemv(codebook.centroids().data() + s * k * sub, k, sub,
                         q + s * sub, lut + s * k);
  }
}

void AdcScanPq(const uint8_t* codes, int64_t n, int64_t m, int64_t k,
               const float* lut, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t* code = codes + i * m;
    double acc = 0.0;
    for (int64_t s = 0; s < m; ++s) {
      acc += static_cast<double>(lut[s * k + static_cast<int64_t>(code[s])]);
    }
    out[i] = static_cast<float>(acc);
  }
}

void AdcScan(const Codebook& codebook, const float* q, const uint8_t* codes,
             int64_t rows, float* out) {
  if (codebook.kind() == Quantization::kInt8) {
    std::vector<float> q_scaled(static_cast<size_t>(codebook.dim()));
    Int8PrepareQuery(q, codebook.scales().data(), codebook.dim(),
                     q_scaled.data());
    AdcScanInt8(codes, rows, codebook.dim(), q_scaled.data(), out);
    return;
  }
  std::vector<float> lut(
      static_cast<size_t>(codebook.pq_subspaces() * codebook.pq_centroids()));
  PqBuildLut(q, codebook, lut.data());
  AdcScanPq(codes, rows, codebook.pq_subspaces(), codebook.pq_centroids(),
            lut.data(), out);
}

}  // namespace sdea::store
