#ifndef SDEA_CORE_CANDIDATE_GENERATOR_H_
#define SDEA_CORE_CANDIDATE_GENERATOR_H_

#include <cstdint>
#include <vector>

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

}  // namespace sdea::core

#endif  // SDEA_CORE_CANDIDATE_GENERATOR_H_
