#include "store/candidates.h"

#include "base/check.h"
#include "core/vector_index.h"
#include "store/adc.h"

namespace sdea::store {

std::vector<std::vector<int64_t>> GenerateCandidatesCompressed(
    const Tensor& src, const Tensor& tgt, int64_t k,
    const CompressedCandidateOptions& options) {
  SDEA_CHECK_EQ(src.rank(), 2);
  SDEA_CHECK_EQ(tgt.rank(), 2);
  SDEA_CHECK_EQ(src.dim(1), tgt.dim(1));
  SDEA_CHECK_GT(k, 0);
  Tensor t = tgt;
  tmath::L2NormalizeRowsInPlace(&t);
  const int64_t m = t.dim(0), d = t.dim(1);
  if (src.dim(0) == 0 || m == 0) {
    return std::vector<std::vector<int64_t>>(static_cast<size_t>(src.dim(0)));
  }

  // Quantize the target side once; every query scans codes.
  Codebook codebook;
  if (options.quantization == Quantization::kInt8) {
    codebook = Codebook::TrainInt8(t);
  } else {
    auto trained = Codebook::TrainPq(t, options.pq);
    SDEA_CHECK(trained.ok());
    codebook = std::move(*trained);
  }
  const std::vector<uint8_t> codes = codebook.EncodeRows(t.data(), m);
  const core::VectorIndex index(
      m, d,
      [&](const float* q, float* scores) {
        AdcScan(codebook, q, codes.data(), m, scores);
      },
      [&](int64_t id) { return t.data() + id * d; }, options.rerank_pool);
  return core::HitIds(index.SearchBatch(src, k));
}

}  // namespace sdea::store
