#include "store/adc.h"

#include "tensor/kernels.h"

namespace sdea::store {

void Int8PrepareQuery(const float* q, const float* scales, int64_t d,
                      float* q_scaled) {
  for (int64_t j = 0; j < d; ++j) q_scaled[j] = q[j] * scales[j];
}

void AdcScanInt8(const uint8_t* codes, int64_t n, int64_t d,
                 const float* q_scaled, float* out) {
  int64_t i = 0;
#ifdef SDEA_HAVE_AVX2_TU
  if (tmath::ActiveSimdLevel() == tmath::SimdLevel::kAvx2) {
    i = internal::AdcScanInt8Avx2(codes, n, d, q_scaled, out);
  }
#endif
  for (; i < n; ++i) {
    const uint8_t* code = codes + i * d;
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      acc += static_cast<double>(q_scaled[j]) *
             static_cast<double>(static_cast<int8_t>(code[j]));
    }
    out[i] = static_cast<float>(acc);
  }
}

}  // namespace sdea::store
