#include "core/vector_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"
#include "base/rng.h"
#include "base/threadpool.h"
#include "tensor/kernels.h"
#include "tensor/topk.h"

namespace sdea::core {
namespace {

// assignment[i] = the centroid nearest row i, ties to the lowest j.
// Spherical mode ranks by dot product (rows and centroids unit-length, so
// dot == cosine); Euclidean mode ranks by squared L2 distance via the
// equivalent argmax of (x . c - 0.5*||c||^2). The scores come from the
// MatmulTransposeB row kernel, which equals ScoreDot bitwise, a block of
// rows at a time so the score buffer stays small. Rows
// are sharded across threads; each row writes only its own slot, so the
// assignment is identical for every thread count.
void AssignToNearestCentroid(const float* rows, int64_t m, int64_t d,
                             const Tensor& centroids, bool spherical,
                             std::vector<int64_t>* assignment) {
  constexpr int64_t kBlockRows = 64;
  const int64_t c = centroids.dim(0);
  std::vector<float> half_norms;
  if (!spherical) {
    half_norms.resize(static_cast<size_t>(c));
    for (int64_t j = 0; j < c; ++j) {
      const float* crow = centroids.data() + j * d;
      half_norms[static_cast<size_t>(j)] =
          0.5f * tmath::kernels::ScoreDot(crow, crow, d);
    }
  }
  // A shard packs the centroids once per block (see MatmulTransposeB), so
  // shards are at least one block long.
  const int64_t grain =
      std::max(base::GrainForWork(m, c * d), std::min(m, kBlockRows));
  base::ParallelFor(
      m, grain, [&](int64_t begin, int64_t end) {
        std::vector<float> scores(
            static_cast<size_t>(std::min(kBlockRows, end - begin) * c));
        for (int64_t first = begin; first < end; first += kBlockRows) {
          const int64_t count = std::min(kBlockRows, end - first);
          tmath::kernels::MatmulTransposeBRows(rows + first * d,
                                               centroids.data(), scores.data(),
                                               d, c, 0, count);
          for (int64_t r = 0; r < count; ++r) {
            const float* row_scores = scores.data() + r * c;
            int64_t best = 0;
            float best_score = spherical
                                   ? -2.0f
                                   : -std::numeric_limits<float>::infinity();
            for (int64_t j = 0; j < c; ++j) {
              float s = row_scores[j];
              if (!spherical) s -= half_norms[static_cast<size_t>(j)];
              if (s > best_score) {
                best_score = s;
                best = j;
              }
            }
            (*assignment)[static_cast<size_t>(first + r)] = best;
          }
        }
      });
}

}  // namespace

KMeansResult KMeansRows(const float* rows, int64_t m, int64_t d, int64_t k,
                        const KMeansOptions& options) {
  KMeansResult result;
  if (m == 0) {
    result.centroids = Tensor({0, d});
    return result;
  }
  k = std::min(std::max<int64_t>(k, 1), m);
  const auto set_centroid = [&](int64_t j, int64_t row) {
    std::copy_n(rows + row * d, d, result.centroids.data() + j * d);
  };

  // k-means++ style init: random distinct rows as seeds.
  Rng rng(options.seed);
  const std::vector<size_t> seeds = rng.SampleWithoutReplacement(
      static_cast<size_t>(m), static_cast<size_t>(k));
  result.centroids = Tensor({k, d});
  for (int64_t i = 0; i < k; ++i) {
    set_centroid(i, static_cast<int64_t>(seeds[static_cast<size_t>(i)]));
  }

  result.assignment.assign(static_cast<size_t>(m), 0);
  for (int64_t iter = 0; iter < options.iters; ++iter) {
    AssignToNearestCentroid(rows, m, d, result.centroids, options.spherical,
                            &result.assignment);
    // Recompute centroids as means (normalized means in spherical mode).
    result.centroids.Zero();
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (int64_t i = 0; i < m; ++i) {
      const int64_t a = result.assignment[static_cast<size_t>(i)];
      ++counts[static_cast<size_t>(a)];
      float* crow = result.centroids.data() + a * d;
      const float* row = rows + i * d;
      for (int64_t j = 0; j < d; ++j) crow[j] += row[j];
    }
    for (int64_t j = 0; j < k; ++j) {
      const int64_t n_j = counts[static_cast<size_t>(j)];
      if (n_j == 0) {
        // Re-seed an empty cell with a random row.
        set_centroid(j, static_cast<int64_t>(
                            rng.UniformInt(static_cast<uint64_t>(m))));
      } else if (!options.spherical) {
        float* crow = result.centroids.data() + j * d;
        const float inv = 1.0f / static_cast<float>(n_j);
        for (int64_t jj = 0; jj < d; ++jj) crow[jj] *= inv;
      }
    }
    if (options.spherical) {
      tmath::L2NormalizeRowsInPlace(&result.centroids);
    }
  }

  // The loop above ends with a centroid update (possibly reseeding empty
  // clusters), so `assignment` describes the *previous* centroids.
  // Re-assign against the final centroids; otherwise callers bucketing by
  // assignment disagree with the returned centroids, and a cluster
  // reseeded on the last iteration would always own an empty bucket.
  AssignToNearestCentroid(rows, m, d, result.centroids, options.spherical,
                          &result.assignment);
  return result;
}

VectorIndex::VectorIndex(const float* rows, int64_t size, int64_t dim)
    : size_(size), dim_(dim), rows_(rows) {}

VectorIndex::VectorIndex(int64_t size, int64_t dim, ScanFn scan, RowFn row,
                         int64_t pool)
    : size_(size),
      dim_(dim),
      row_(std::move(row)),
      scan_(std::move(scan)),
      pool_(pool) {}

void VectorIndex::BuildIvf(const IvfOptions& options) {
  SDEA_CHECK(rows_ != nullptr || size_ == 0);
  num_probes_ = options.num_probes;
  int64_t c = options.num_clusters;
  if (c <= 0) {
    c = std::max<int64_t>(
        1, static_cast<int64_t>(std::sqrt(static_cast<double>(size_))));
  }
  // Spherical k-means over the normalized rows (cosine == dot). The same
  // machinery trains PQ codebooks in Euclidean mode (store/quantizer.cc).
  KMeansOptions kmeans;
  kmeans.iters = options.kmeans_iters;
  kmeans.seed = options.seed;
  kmeans.spherical = true;
  KMeansResult km = KMeansRows(rows_, size_, dim_, std::min(c, size_), kmeans);
  centroids_ = std::move(km.centroids);
  cells_.assign(static_cast<size_t>(centroids_.dim(0)), {});
  for (int64_t i = 0; i < size_; ++i) {
    cells_[static_cast<size_t>(km.assignment[static_cast<size_t>(i)])]
        .push_back(i);
  }
}

int64_t VectorIndex::RerankPool(int64_t k) const {
  if (!scan_ || (rows_ == nullptr && row_ == nullptr)) return 0;
  return std::min(size_,
                  pool_ > 0 ? pool_ : std::max<int64_t>(4 * k, k + 16));
}

std::vector<int64_t> VectorIndex::ProbedRows(const float* query) const {
  // Rank cells by centroid similarity; TopK's total order breaks score
  // ties by ascending cell index, so duplicate centroids probe a
  // well-defined cell set on every platform.
  const int64_t c = centroids_.dim(0);
  std::vector<float> cell_score(static_cast<size_t>(c));
  tmath::kernels::Gemv(centroids_.data(), c, dim_, query, cell_score.data());
  std::vector<int64_t> ids;
  for (int64_t cell : tmath::TopK(cell_score.data(), c,
                                  std::min<int64_t>(num_probes_, c))) {
    const std::vector<int64_t>& rows = cells_[static_cast<size_t>(cell)];
    ids.insert(ids.end(), rows.begin(), rows.end());
  }
  return ids;
}

std::vector<VectorIndex::Hit> VectorIndex::Search(const float* query,
                                                  int64_t k) const {
  // k <= 0 has nothing to rank; an empty index has nothing to return.
  if (k <= 0 || size_ == 0) return {};
  Tensor q({1, dim_});
  std::copy_n(query, dim_, q.data());
  tmath::L2NormalizeRowsInPlace(&q);

  // The rows worth a final score: the survivors of the approximate scan,
  // the probed IVF cells, or every row. A full scan keeps no id array —
  // position i is row i — since one the size of the table costs a large
  // allocation per query.
  std::vector<int64_t> ids;
  std::vector<float> approx;
  if (scan_) {
    approx.resize(static_cast<size_t>(size_));
    scan_(q.data(), approx.data());
    const int64_t pool = RerankPool(k);
    ids = tmath::TopK(approx.data(), size_, pool > 0 ? pool : k);
  } else if (has_ivf()) {
    ids = ProbedRows(q.data());
  }
  const bool every_row = !scan_ && !has_ivf();
  const auto id_at = [&](int64_t pos) {
    return every_row ? pos : ids[static_cast<size_t>(pos)];
  };

  // Exact rescoring on the fp32 rows (one Gemv when every row is scored
  // and they are contiguous; a scan without them keeps its own scores),
  // then the final order. The score array follows `ids`, so ties break by
  // ascending row id through the tie-id overload.
  const bool rescore = rows_ != nullptr || row_ != nullptr;
  const int64_t n = every_row ? size_ : static_cast<int64_t>(ids.size());
  std::vector<float> scores(static_cast<size_t>(n));
  if (every_row && rows_ != nullptr) {
    tmath::kernels::Gemv(rows_, size_, dim_, q.data(), scores.data());
  } else {
    for (int64_t i = 0; i < n; ++i) {
      scores[static_cast<size_t>(i)] =
          rescore ? tmath::kernels::ScoreDot(q.data(), Row(id_at(i)), dim_)
                  : approx[static_cast<size_t>(id_at(i))];
    }
  }
  const std::vector<int64_t> top =
      every_row ? tmath::TopK(scores.data(), n, k)
                : tmath::TopKWithTieIds(scores.data(), n, k, ids.data());
  std::vector<Hit> out;
  out.reserve(top.size());
  for (int64_t pos : top) {
    out.push_back(Hit{id_at(pos), scores[static_cast<size_t>(pos)]});
  }
  return out;
}

std::vector<std::vector<VectorIndex::Hit>> VectorIndex::SearchBatch(
    const Tensor& queries, int64_t k) const {
  if (queries.rank() != 2) {
    SDEA_CHECK_EQ(queries.size(), 0);
    return {};
  }
  SDEA_CHECK_EQ(queries.dim(1), dim_);
  const int64_t n = queries.dim(0);
  std::vector<std::vector<Hit>> out(static_cast<size_t>(n));
  // Estimated per-query work: the centroid scan plus the probed cells, or
  // every row.
  const int64_t c = num_clusters();
  const int64_t rows_scored =
      c > 0 ? c + num_probes_ * std::max<int64_t>(1, size_ / c) : size_;
  base::ParallelFor(n, base::GrainForWork(n, rows_scored * dim_),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        out[static_cast<size_t>(i)] =
                            Search(queries.data() + i * dim_, k);
                      }
                    });
  return out;
}

std::vector<std::vector<int64_t>> HitIds(
    const std::vector<std::vector<VectorIndex::Hit>>& answers) {
  std::vector<std::vector<int64_t>> ids(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    for (const VectorIndex::Hit& hit : answers[i]) ids[i].push_back(hit.id);
  }
  return ids;
}

}  // namespace sdea::core
