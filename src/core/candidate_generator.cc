#include "core/candidate_generator.h"

#include "base/check.h"
#include "core/vector_index.h"

namespace sdea::core {

std::vector<std::vector<int64_t>> GenerateCandidates(const Tensor& src,
                                                     const Tensor& tgt,
                                                     int64_t k) {
  SDEA_CHECK_EQ(src.rank(), 2);
  SDEA_CHECK_EQ(tgt.rank(), 2);
  SDEA_CHECK_EQ(src.dim(1), tgt.dim(1));
  SDEA_CHECK_GT(k, 0);
  Tensor t = tgt;
  tmath::L2NormalizeRowsInPlace(&t);
  const VectorIndex index(t.data(), t.dim(0), t.dim(1));
  const std::vector<std::vector<VectorIndex::Hit>> answers =
      index.SearchBatch(src, k);
  std::vector<std::vector<int64_t>> ids(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    for (const VectorIndex::Hit& hit : answers[i]) ids[i].push_back(hit.id);
  }
  return ids;
}

}  // namespace sdea::core
