#ifndef SDEA_STORE_CANDIDATES_H_
#define SDEA_STORE_CANDIDATES_H_

#include <cstdint>
#include <vector>

#include "store/quantizer.h"
#include "tensor/tensor.h"

namespace sdea::store {

/// Knobs for compressed candidate generation.
struct CompressedCandidateOptions {
  Quantization quantization = Quantization::kInt8;
  PqOptions pq;  ///< Used when quantization == kPq.
  /// ADC survivor pool per query row before the exact rerank;
  /// 0 picks max(4k, k + 16).
  int64_t rerank_pool = 0;
};

/// Drop-in variant of core::GenerateCandidates (same contract: both
/// sides L2-normalized internally, out[i] = top-k target row ids for
/// source row i, ranked best-first) that scans quantized target codes
/// instead of fp32 rows: the target side is quantized once, and a
/// core::VectorIndex ADC-scans the codes for every query (1 or dim
/// bytes/row instead of 4*dim) and reranks the survivor pool exactly
/// against the normalized fp32 targets. Queries are sharded across
/// threads with each row writing only its own slot — deterministic for
/// every thread count.
std::vector<std::vector<int64_t>> GenerateCandidatesCompressed(
    const Tensor& src, const Tensor& tgt, int64_t k,
    const CompressedCandidateOptions& options = {});

}  // namespace sdea::store

#endif  // SDEA_STORE_CANDIDATES_H_
