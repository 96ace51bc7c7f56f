#include "core/vector_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/candidate_generator.h"
#include "tensor/kernels.h"

namespace sdea::core {
namespace {

// An exact VectorIndex over a normalized copy of `rows`, which it borrows.
struct Exact {
  explicit Exact(const Tensor& rows) : normalized(rows) {
    tmath::L2NormalizeRowsInPlace(&normalized);
    index = VectorIndex(normalized.data(), normalized.dim(0),
                        normalized.dim(1));
  }
  std::vector<int64_t> Query(const float* query, int64_t k) const {
    std::vector<int64_t> ids;
    for (const VectorIndex::Hit& hit : index.Search(query, k)) {
      ids.push_back(hit.id);
    }
    return ids;
  }
  Tensor normalized;
  VectorIndex index;
};

TEST(VectorIndexTest, KNonPositiveReturnsEmpty) {
  Rng rng(7);
  Tensor tgt = Tensor::RandomNormal({50, 4}, 1.0f, &rng);
  const Exact index(tgt);
  Tensor q = Tensor::RandomNormal({1, 4}, 1.0f, &rng);
  tmath::L2NormalizeRowsInPlace(&q);
  // k <= 0 previously made the partial_sort middle iterator negative (UB);
  // now it degrades to "no candidates".
  EXPECT_TRUE(index.Query(q.data(), 0).empty());
  EXPECT_TRUE(index.Query(q.data(), -3).empty());
  const auto batch = index.index.SearchBatch(Tensor::RandomNormal({5, 4}, 1.0f,
                                                           &rng), 0);
  ASSERT_EQ(batch.size(), 5u);
  for (const auto& row : batch) EXPECT_TRUE(row.empty());
}

TEST(VectorIndexTest, EmptyIndexReturnsEmpty) {
  const Exact index(Tensor({0, 4}));
  const float query[4] = {1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_TRUE(index.Query(query, 5).empty());
  Rng rng(8);
  const auto batch =
      index.index.SearchBatch(Tensor::RandomNormal({3, 4}, 1.0f, &rng), 5);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& row : batch) EXPECT_TRUE(row.empty());
}

TEST(VectorIndexTest, EmptyQueryBatchReturnsEmpty) {
  Rng rng(9);
  Tensor tgt = Tensor::RandomNormal({20, 4}, 1.0f, &rng);
  const Exact index(tgt);
  EXPECT_TRUE(index.index.SearchBatch(Tensor({0, 4}), 5).empty());
  EXPECT_TRUE(index.index.SearchBatch(Tensor(), 5).empty());
}

TEST(VectorIndexTest, KLargerThanIndexClamps) {
  Rng rng(10);
  Tensor tgt = Tensor::RandomNormal({12, 4}, 1.0f, &rng);
  const Exact index(tgt);
  Tensor q = Tensor::RandomNormal({1, 4}, 1.0f, &rng);
  tmath::L2NormalizeRowsInPlace(&q);
  EXPECT_EQ(index.Query(q.data(), 1000).size(), 12u);
}

TEST(VectorIndexTest, Deterministic) {
  Rng rng(6);
  Tensor tgt = Tensor::RandomNormal({100, 8}, 1.0f, &rng);
  Tensor src = Tensor::RandomNormal({10, 8}, 1.0f, &rng);
  const auto a = GenerateCandidates(src, tgt, 5);
  const auto b = GenerateCandidates(src, tgt, 5);
  EXPECT_EQ(a, b);
}

TEST(VectorIndexScanTest, RerankOverEveryRowMatchesExactSearch) {
  // A table no larger than the pool (k + 16 rows for k = 5) rescores every
  // row exactly, so the answer equals the exact index's whatever order the
  // scan proposed.
  const int64_t n = 5 + 16, d = 8;
  Rng rng(11);
  Tensor rows = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  tmath::L2NormalizeRowsInPlace(&rows);
  const VectorIndex exact(rows.data(), n, d);
  const VectorIndex reranked(
      n, d,
      [n](const float*, float* scores) {
        for (int64_t i = 0; i < n; ++i) scores[i] = -static_cast<float>(i);
      },
      [&](int64_t id) { return rows.data() + id * d; });
  EXPECT_EQ(reranked.RerankPool(5), n);
  const Tensor queries = Tensor::RandomNormal({10, d}, 1.0f, &rng);
  for (int64_t i = 0; i < queries.dim(0); ++i) {
    const auto want = exact.Search(queries.data() + i * d, 5);
    const auto got = reranked.Search(queries.data() + i * d, 5);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].id, want[j].id);
      EXPECT_EQ(got[j].score, want[j].score);
    }
  }
}

TEST(VectorIndexScanTest, RerankKeepsOnlyTheScansBestPool) {
  // The scan ranks rows against their exact order (it scores each row with
  // minus its exact score), over a table larger than the pool. The answer
  // must be the best exact rows among the scan's top max(4k, k + 16), and
  // the row just outside that pool, which beats every row inside it
  // exactly, must never appear.
  const int64_t n = 200, d = 8, k = 5;
  Rng rng(12);
  Tensor rows = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  tmath::L2NormalizeRowsInPlace(&rows);
  const VectorIndex exact(rows.data(), n, d);
  const VectorIndex reranked(
      n, d,
      [&](const float* query, float* scores) {
        tmath::kernels::Gemv(rows.data(), n, d, query, scores);
        for (int64_t i = 0; i < n; ++i) scores[i] = -scores[i];
      },
      [&](int64_t id) { return rows.data() + id * d; });
  const int64_t pool = reranked.RerankPool(k);
  ASSERT_EQ(pool, k + 16);
  const Tensor queries = Tensor::RandomNormal({20, d}, 1.0f, &rng);
  for (int64_t i = 0; i < queries.dim(0); ++i) {
    const float* query = queries.data() + i * d;
    // Every row, best first: the scan's pool is the last `pool` of them.
    const auto order = exact.Search(query, n);
    ASSERT_EQ(static_cast<int64_t>(order.size()), n);
    const int64_t outside = order[static_cast<size_t>(n - pool - 1)].id;
    const auto got = reranked.Search(query, k);
    ASSERT_EQ(static_cast<int64_t>(got.size()), k);
    for (int64_t j = 0; j < k; ++j) {
      const VectorIndex::Hit& want = order[static_cast<size_t>(n - pool + j)];
      EXPECT_EQ(got[static_cast<size_t>(j)].id, want.id) << "query " << i;
      EXPECT_EQ(got[static_cast<size_t>(j)].score, want.score);
      EXPECT_NE(got[static_cast<size_t>(j)].id, outside) << "query " << i;
    }
  }
}

TEST(VectorIndexScanTest, ScanOnlyAnswersWithScanScores) {
  // Without fp32 rows there is nothing to rerank on: the scan's scores
  // are the answer, ties by ascending row id.
  const VectorIndex index(
      5, 2,
      [](const float*, float* scores) {
        const float fixed[5] = {0.1f, 0.5f, 0.5f, -1.0f, 0.9f};
        std::copy(fixed, fixed + 5, scores);
      },
      nullptr);
  EXPECT_EQ(index.RerankPool(3), 0);
  const float query[2] = {1.0f, 0.0f};
  const auto hits = index.Search(query, 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 4);
  EXPECT_EQ(hits[1].id, 1);
  EXPECT_EQ(hits[2].id, 2);
  EXPECT_EQ(hits[0].score, 0.9f);
  EXPECT_EQ(hits[2].score, 0.5f);
}

TEST(VectorIndexScanTest, DefaultPoolIsMaxOf4kAndKPlus16) {
  const auto scan = [](const float*, float*) {};
  const auto row = [](int64_t) -> const float* { return nullptr; };
  const VectorIndex large(1000, 4, scan, row);
  EXPECT_EQ(large.RerankPool(1), 17);
  EXPECT_EQ(large.RerankPool(10), 40);
  // The pool never exceeds the table.
  EXPECT_EQ(VectorIndex(20, 4, scan, row).RerankPool(10), 20);
  // An exact index rescores rows directly, with no scan pool.
  EXPECT_EQ(VectorIndex(nullptr, 0, 4).RerankPool(10), 0);
}

}  // namespace
}  // namespace sdea::core
