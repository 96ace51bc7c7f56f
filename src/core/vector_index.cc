#include "core/vector_index.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "base/threadpool.h"
#include "tensor/kernels.h"
#include "tensor/topk.h"

namespace sdea::core {

VectorIndex::VectorIndex(const float* rows, int64_t size, int64_t dim)
    : size_(size), dim_(dim), rows_(rows) {}

VectorIndex::VectorIndex(int64_t size, int64_t dim, ScanFn scan, RowFn row)
    : size_(size), dim_(dim), row_(std::move(row)), scan_(std::move(scan)) {}

int64_t VectorIndex::RerankPool(int64_t k) const {
  if (!scan_ || !row_) return 0;
  return std::min(size_, std::max<int64_t>(4 * k, k + 16));
}

std::vector<VectorIndex::Hit> VectorIndex::Search(const float* query,
                                                  int64_t k) const {
  // k <= 0 has nothing to rank; an empty index has nothing to return.
  if (k <= 0 || size_ == 0) return {};
  Tensor q({1, dim_});
  std::copy_n(query, dim_, q.data());
  tmath::L2NormalizeRowsInPlace(&q);
  std::vector<Hit> out;

  if (!scan_) {
    // Exact: one Gemv scores every row. Position i is row i, so TopK's
    // ties by ascending position are ties by ascending row id, and no id
    // array the size of the table is allocated per query.
    std::vector<float> scores(static_cast<size_t>(size_));
    tmath::kernels::Gemv(rows_, size_, dim_, q.data(), scores.data());
    for (int64_t id : tmath::TopK(scores.data(), size_, k)) {
      out.push_back(Hit{id, scores[static_cast<size_t>(id)]});
    }
    return out;
  }

  // The scan's survivors, rescored exactly on the fp32 rows (a scan
  // without them keeps its own scores), then the final order. The score
  // array follows `ids`, so ties break by ascending row id through the
  // tie-id overload.
  std::vector<float> approx(static_cast<size_t>(size_));
  scan_(q.data(), approx.data());
  const int64_t pool = RerankPool(k);
  const std::vector<int64_t> ids =
      tmath::TopK(approx.data(), size_, pool > 0 ? pool : k);
  const int64_t n = static_cast<int64_t>(ids.size());
  std::vector<float> scores(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = ids[static_cast<size_t>(i)];
    scores[static_cast<size_t>(i)] =
        row_ ? tmath::kernels::ScoreDot(q.data(), row_(id), dim_)
             : approx[static_cast<size_t>(id)];
  }
  for (int64_t pos : tmath::TopKWithTieIds(scores.data(), n, k, ids.data())) {
    out.push_back(Hit{ids[static_cast<size_t>(pos)],
                      scores[static_cast<size_t>(pos)]});
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
  // Every query scores every row.
  base::ParallelFor(n, base::GrainForWork(n, size_ * dim_),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        out[static_cast<size_t>(i)] =
                            Search(queries.data() + i * dim_, k);
                      }
                    });
  return out;
}

}  // namespace sdea::core
