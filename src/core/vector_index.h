#ifndef SDEA_CORE_VECTOR_INDEX_H_
#define SDEA_CORE_VECTOR_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace sdea::core {

/// Options for the shared k-means machinery underneath the IVF cells of
/// VectorIndex and store::PqQuantizer codebook training.
struct KMeansOptions {
  int64_t iters = 6;
  uint64_t seed = 47;
  /// Spherical (cosine) k-means: assignment by max dot product, centroids
  /// re-normalized to unit length each round — the IVF configuration,
  /// where rows are L2-normalized and similarity is cosine. When false,
  /// plain Euclidean k-means: assignment by min squared L2 distance,
  /// centroids are un-normalized means — the PQ configuration, where
  /// subvectors carry magnitude that quantization must preserve.
  bool spherical = true;
};

struct KMeansResult {
  Tensor centroids;                 ///< [k, d].
  std::vector<int64_t> assignment;  ///< m entries in [0, k).
};

/// Lloyd's k-means over `m` row-major rows of `d` floats, deterministic
/// for a fixed seed AND thread count-independent: the assignment pass
/// shards rows across base::ThreadPool with each row writing only its own
/// slot, and every tie (equidistant centroids) breaks toward the lowest
/// centroid index. Seeds are k distinct random rows; a cluster left empty
/// after an update round is re-seeded with a random row. The returned
/// assignment is computed against the FINAL centroids (one extra
/// assignment pass after the last update), so callers can bucket rows
/// without a stale-centroid mismatch. k is clamped to m; m == 0 returns
/// empty.
KMeansResult KMeansRows(const float* rows, int64_t m, int64_t d, int64_t k,
                        const KMeansOptions& options);

/// Options for the IVF coarse stage of VectorIndex.
struct IvfOptions {
  int64_t num_clusters = 0;   ///< 0 = sqrt(N) heuristic.
  int64_t num_probes = 4;     ///< Clusters scanned per query.
  int64_t kmeans_iters = 6;
  uint64_t seed = 47;
};

/// The one nearest-neighbour search behind every retrieval entry point
/// (EmbeddingStore and QuantizedStore queries, the GenerateCandidates
/// family, AlignmentPipeline::TopTargets). It owns the whole ranking
/// decision, in three stages:
///
///   - coarse: score every row, or only the rows of the `num_probes` IVF
///     cells whose k-means centroids are nearest the query;
///   - scan: exact fp32 scores, or an approximate scan (int8/PQ ADC) of
///     which the best max(4k, k + 16) rows — or `pool` — survive;
///   - rerank: exact kernels::ScoreDot on the fp32 rows, ranked by
///     tmath::TopKWithTieIds — score descending, ties by ascending row id.
///
/// The index keeps no copy of the table. Its owner hands it rows that are
/// already L2-normalized and keeps them alive and in place while the
/// index is in use; the index itself keeps only IVF centroids and per-cell
/// row ids. Queries are normalized here, once per query. Search keeps no
/// shared mutable scratch, so concurrent calls are safe.
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
  /// `pool` <= 0 picks max(4k, k + 16).
  VectorIndex(int64_t size, int64_t dim, ScanFn scan, RowFn row,
              int64_t pool = 0);

  /// Adds the IVF coarse stage: spherical k-means cells over the exact
  /// rows (requires the rows constructor).
  void BuildIvf(const IvfOptions& options);
  bool has_ivf() const { return centroids_.rank() == 2; }
  int64_t num_clusters() const { return has_ivf() ? centroids_.dim(0) : 0; }

  /// How many scan survivors a k-query rescores exactly (0 for exact
  /// indexes and for scan-only answers).
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
  const float* Row(int64_t id) const {
    return rows_ != nullptr ? rows_ + id * dim_ : row_(id);
  }
  std::vector<int64_t> ProbedRows(const float* query) const;

  int64_t size_ = 0;
  int64_t dim_ = 0;
  const float* rows_ = nullptr;  // Borrowed exact rows, or null.
  RowFn row_;                    // Exact rows when they are not contiguous.
  ScanFn scan_;                  // Approximate scan, or empty.
  int64_t pool_ = 0;
  // IVF stage: [C, d] centroids (rank 0 until BuildIvf) and row ids per
  // cell.
  Tensor centroids_;
  std::vector<std::vector<int64_t>> cells_;
  int64_t num_probes_ = 0;
};

/// The ids of SearchBatch answers, best first: the candidate-list shape
/// the GenerateCandidates family returns.
std::vector<std::vector<int64_t>> HitIds(
    const std::vector<std::vector<VectorIndex::Hit>>& answers);

}  // namespace sdea::core

#endif  // SDEA_CORE_VECTOR_INDEX_H_
