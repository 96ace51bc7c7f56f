#ifndef SDEA_CORE_VECTOR_INDEX_H_
#define SDEA_CORE_VECTOR_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace sdea::core {

/// The one nearest-neighbour search behind every retrieval entry point
/// (EmbeddingStore and QuantizedStore queries, GenerateCandidates,
/// AlignmentPipeline::TopTargets). It owns the whole ranking decision and
/// ranks one of two ways, fixed by the constructor:
///
///   - exact: kernels::Gemv scores every fp32 row;
///   - scan and rerank: an approximate scan (the int8 ADC scan) scores
///     every row, and the best max(4k, k + 16) rows are rescored exactly
///     with kernels::ScoreDot on the fp32 rows.
///
/// Either way the answer is ranked by tmath's top-k: score descending,
/// ties by ascending row id.
///
/// The index keeps no copy of the table. Its owner hands it rows that are
/// already L2-normalized and keeps them alive and in place while the
/// index is in use. Queries are normalized here, once per query. Search
/// keeps no shared mutable scratch, so concurrent calls are safe.
class VectorIndex {
 public:
  /// One answer: a row id and its cosine similarity to the query.
  struct Hit {
    int64_t id;
    float score;
  };
  /// Fills scores[0, size) with approximate similarities of every row to
  /// the normalized query. Called concurrently by SearchBatch.
  using ScanFn = std::function<void(const float* query, float* scores)>;
  /// The normalized fp32 row `id`, for the exact rerank.
  using RowFn = std::function<const float*(int64_t id)>;

  /// An empty index: every search answers nothing.
  VectorIndex() = default;

  /// Exact search over `rows` ([size, dim], row-major, borrowed).
  VectorIndex(const float* rows, int64_t size, int64_t dim);

  /// Scan-and-rerank search over `size` rows of `dim` floats: `scan`
  /// scores every row and the RerankPool(k) best are rescored exactly on
  /// `row`. Without `row` the index answers with the scan's scores.
  VectorIndex(int64_t size, int64_t dim, ScanFn scan, RowFn row);

  /// How many scan survivors a k-query rescores exactly: max(4k, k + 16),
  /// at most the table (0 for exact indexes and for scan-only answers).
  int64_t RerankPool(int64_t k) const;

  /// The top-k rows for `query` (dim() floats, any norm), best first. k
  /// <= 0 or an empty index yields an empty answer; k clamps to the rows
  /// scored.
  std::vector<Hit> Search(const float* query, int64_t k) const;

  /// Search for every row of `queries` ([n, dim]), rows sharded across
  /// base::ThreadPool with each writing only its own answer slot, so the
  /// result is identical for every thread count. An empty or rank-0
  /// tensor yields no answers.
  std::vector<std::vector<Hit>> SearchBatch(const Tensor& queries,
                                            int64_t k) const;

 private:
  int64_t size_ = 0;
  int64_t dim_ = 0;
  const float* rows_ = nullptr;  // Borrowed exact rows, or null.
  RowFn row_;                    // A scan's rerank rows, or empty.
  ScanFn scan_;                  // Approximate scan, or empty.
};

}  // namespace sdea::core

#endif  // SDEA_CORE_VECTOR_INDEX_H_
