#ifndef SDEA_CORE_CANDIDATE_GENERATOR_H_
#define SDEA_CORE_CANDIDATE_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "core/vector_index.h"
#include "tensor/tensor.h"

namespace sdea::core {

/// GenCandidates (Algorithms 2 & 3): for each source embedding row, the
/// indices of the top-k most cosine-similar target rows, best first. Used
/// both for negative sampling during training and as a retrieval blocking
/// step. Exact search through a core::VectorIndex over the normalized
/// targets, source rows sharded across threads.
std::vector<std::vector<int64_t>> GenerateCandidates(const Tensor& src,
                                                     const Tensor& tgt,
                                                     int64_t k);

/// Approximate variant of GenerateCandidates (same contract): the index
/// scores only the rows of the probed IVF cells. The exact scan is
/// O(N*M) per epoch, which dominates at the 100K scale of OpenEA
/// D_W_100K; IVF trades a little recall for a num_probes/num_clusters
/// scan fraction.
std::vector<std::vector<int64_t>> GenerateCandidatesApprox(
    const Tensor& src, const Tensor& tgt, int64_t k,
    const IvfOptions& options = {});

}  // namespace sdea::core

#endif  // SDEA_CORE_CANDIDATE_GENERATOR_H_
