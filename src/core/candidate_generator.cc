#include "core/candidate_generator.h"

#include "base/check.h"

namespace sdea::core {
namespace {

std::vector<std::vector<int64_t>> Candidates(const Tensor& src,
                                             const Tensor& tgt, int64_t k,
                                             const IvfOptions* ivf) {
  Tensor t = tgt;
  tmath::L2NormalizeRowsInPlace(&t);
  VectorIndex index(t.data(), t.dim(0), t.dim(1));
  if (ivf != nullptr) index.BuildIvf(*ivf);
  return HitIds(index.SearchBatch(src, k));
}

}  // namespace

std::vector<std::vector<int64_t>> GenerateCandidates(const Tensor& src,
                                                     const Tensor& tgt,
                                                     int64_t k) {
  SDEA_CHECK_EQ(src.rank(), 2);
  SDEA_CHECK_EQ(tgt.rank(), 2);
  SDEA_CHECK_EQ(src.dim(1), tgt.dim(1));
  SDEA_CHECK_GT(k, 0);
  return Candidates(src, tgt, k, nullptr);
}

std::vector<std::vector<int64_t>> GenerateCandidatesApprox(
    const Tensor& src, const Tensor& tgt, int64_t k,
    const IvfOptions& options) {
  return Candidates(src, tgt, k, &options);
}

}  // namespace sdea::core
