#include "core/vector_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/candidate_generator.h"

namespace sdea::core {
namespace {

// An IVF VectorIndex over a normalized copy of `rows`, which it borrows.
struct Ivf {
  Ivf(const Tensor& rows, const IvfOptions& options) : normalized(rows) {
    tmath::L2NormalizeRowsInPlace(&normalized);
    index = VectorIndex(normalized.data(), normalized.dim(0),
                        normalized.dim(1));
    index.BuildIvf(options);
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

TEST(VectorIndexIvfTest, SmallDataExactlyMatchesBruteForce) {
  // With one probe covering everything (clusters=1), IVF equals exact.
  Rng rng(1);
  Tensor tgt = Tensor::RandomNormal({30, 8}, 1.0f, &rng);
  Tensor src = Tensor::RandomNormal({5, 8}, 1.0f, &rng);
  IvfOptions opt;
  opt.num_clusters = 1;
  opt.num_probes = 1;
  const auto approx = GenerateCandidatesApprox(src, tgt, 5, opt);
  const auto exact = GenerateCandidates(src, tgt, 5);
  EXPECT_EQ(approx, exact);
}

TEST(VectorIndexIvfTest, HighRecallAtModerateProbes) {
  Rng rng(2);
  Tensor tgt = Tensor::RandomNormal({1000, 16}, 1.0f, &rng);
  Tensor src = Tensor::RandomNormal({50, 16}, 1.0f, &rng);
  IvfOptions opt;
  opt.num_probes = 8;
  const auto approx = GenerateCandidatesApprox(src, tgt, 10, opt);
  const auto exact = GenerateCandidates(src, tgt, 10);
  int64_t hits = 0, total = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    const std::set<int64_t> a(approx[i].begin(), approx[i].end());
    for (int64_t id : exact[i]) {
      ++total;
      if (a.count(id)) ++hits;
    }
  }
  const double recall = static_cast<double>(hits) / total;
  EXPECT_GT(recall, 0.6);  // Random data is the hardest case for IVF.
}

TEST(VectorIndexIvfTest, Top1OfEasyClustersIsExact) {
  // Well-separated clusters: the nearest neighbor of a near-duplicate
  // query must be found even with 1 probe.
  Rng rng(3);
  Tensor tgt({40, 4});
  for (int64_t i = 0; i < 40; ++i) {
    Tensor row({4});
    row[i % 4] = 10.0f;
    for (int64_t j = 0; j < 4; ++j) {
      row[j] += static_cast<float>(rng.Normal(0.0, 0.1));
    }
    tgt.SetRow(i, row);
  }
  IvfOptions opt;
  opt.num_clusters = 4;
  opt.num_probes = 1;
  const Ivf index(tgt, opt);
  for (int64_t q = 0; q < 40; ++q) {
    Tensor query = tgt.Row(q);
    // Normalize query as the index does.
    Tensor qm({1, 4});
    qm.SetRow(0, query);
    tmath::L2NormalizeRowsInPlace(&qm);
    const auto got = index.Query(qm.data(), 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], q);  // Its own row is the top hit.
  }
}

TEST(VectorIndexIvfTest, KCappedByCandidatesScanned) {
  Rng rng(4);
  Tensor tgt = Tensor::RandomNormal({20, 4}, 1.0f, &rng);
  IvfOptions opt;
  opt.num_clusters = 10;
  opt.num_probes = 1;
  const Ivf index(tgt, opt);
  Tensor q = Tensor::RandomNormal({1, 4}, 1.0f, &rng);
  tmath::L2NormalizeRowsInPlace(&q);
  const auto got = index.Query(q.data(), 50);
  EXPECT_LE(got.size(), 20u);
  std::set<int64_t> distinct(got.begin(), got.end());
  EXPECT_EQ(distinct.size(), got.size());
}

TEST(VectorIndexIvfTest, DefaultClusterHeuristic) {
  Rng rng(5);
  Tensor tgt = Tensor::RandomNormal({400, 8}, 1.0f, &rng);
  const Ivf index(tgt, IvfOptions{});
  EXPECT_EQ(index.index.num_clusters(), 20);  // sqrt(400).
}

TEST(VectorIndexIvfTest, ReseededEmptyClusterOwnsItsCell) {
  // 15 identical rows along e0 plus one along e1. Both initial seeds land
  // in the e0 group (all its rows are identical), so the first assignment
  // sends every row to cluster 0 and cluster 1 is reseeded during the
  // centroid update. With kmeans_iters = 1 that reseed is the *final*
  // centroid state; before the final-assignment fix, cells_ was built from
  // the stale pre-reseed assignment, leaving the reseeded cluster with an
  // empty cell and single-probe queries with zero results.
  Tensor rows({16, 4});
  for (int64_t i = 0; i < 15; ++i) {
    rows.SetRow(i, Tensor::FromVector({1.0f, 0.0f, 0.0f, 0.0f}));
  }
  rows.SetRow(15, Tensor::FromVector({0.0f, 1.0f, 0.0f, 0.0f}));
  IvfOptions opt;
  opt.num_clusters = 2;
  opt.num_probes = 1;
  opt.kmeans_iters = 1;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    opt.seed = seed;
    const Ivf index(rows, opt);
    Tensor q({1, 4});
    q.SetRow(0, Tensor::FromVector({1.0f, 0.0f, 0.0f, 0.0f}));
    const auto got = index.Query(q.data(), 5);
    ASSERT_EQ(got.size(), 5u) << "seed " << seed;
    for (int64_t id : got) EXPECT_LT(id, 15);  // All from the e0 group.
  }
}

TEST(VectorIndexIvfTest, KNonPositiveReturnsEmpty) {
  Rng rng(7);
  Tensor tgt = Tensor::RandomNormal({50, 4}, 1.0f, &rng);
  const Ivf index(tgt, IvfOptions{});
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

TEST(VectorIndexIvfTest, EmptyIndexReturnsEmpty) {
  const Ivf index(Tensor({0, 4}), IvfOptions{});
  EXPECT_EQ(index.index.num_clusters(), 0);
  const float query[4] = {1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_TRUE(index.Query(query, 5).empty());
  Rng rng(8);
  const auto batch =
      index.index.SearchBatch(Tensor::RandomNormal({3, 4}, 1.0f, &rng), 5);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& row : batch) EXPECT_TRUE(row.empty());
}

TEST(VectorIndexIvfTest, EmptyQueryBatchReturnsEmpty) {
  Rng rng(9);
  Tensor tgt = Tensor::RandomNormal({20, 4}, 1.0f, &rng);
  const Ivf index(tgt, IvfOptions{});
  EXPECT_TRUE(index.index.SearchBatch(Tensor({0, 4}), 5).empty());
  EXPECT_TRUE(index.index.SearchBatch(Tensor(), 5).empty());
}

TEST(VectorIndexIvfTest, KLargerThanIndexClamps) {
  Rng rng(10);
  Tensor tgt = Tensor::RandomNormal({12, 4}, 1.0f, &rng);
  IvfOptions opt;
  opt.num_clusters = 1;  // One probe scans everything: exactly 12 results.
  opt.num_probes = 1;
  const Ivf index(tgt, opt);
  Tensor q = Tensor::RandomNormal({1, 4}, 1.0f, &rng);
  tmath::L2NormalizeRowsInPlace(&q);
  EXPECT_EQ(index.Query(q.data(), 1000).size(), 12u);
}

TEST(VectorIndexIvfTest, DuplicateCentroidsProbeLowestCellsFirst) {
  // All rows identical -> every centroid is the same vector (empty clusters
  // reseed from identical rows) and every cell score ties exactly. The cell
  // ranking must break those ties by ascending cell index, landing on cell
  // 0 — the one that owns all the rows. The old comparator ordered cells by
  // score only, so a full tie left the probe set implementation-defined and
  // a single probe could pick an empty cell and return nothing.
  Tensor rows({24, 4});
  for (int64_t i = 0; i < 24; ++i) {
    rows.SetRow(i, Tensor::FromVector({0.5f, -0.5f, 0.5f, -0.5f}));
  }
  IvfOptions opt;
  opt.num_clusters = 6;
  opt.num_probes = 1;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    opt.seed = seed;
    const Ivf index(rows, opt);
    Tensor q({1, 4});
    q.SetRow(0, Tensor::FromVector({0.5f, -0.5f, 0.5f, -0.5f}));
    tmath::L2NormalizeRowsInPlace(&q);
    const auto got = index.Query(q.data(), 10);
    ASSERT_EQ(got.size(), 10u) << "seed " << seed;
    // Row ties inside the scanned cell also break ascending.
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], static_cast<int64_t>(i)) << "seed " << seed;
    }
  }
}

TEST(VectorIndexIvfTest, Deterministic) {
  Rng rng(6);
  Tensor tgt = Tensor::RandomNormal({100, 8}, 1.0f, &rng);
  Tensor src = Tensor::RandomNormal({10, 8}, 1.0f, &rng);
  const auto a = GenerateCandidatesApprox(src, tgt, 5);
  const auto b = GenerateCandidatesApprox(src, tgt, 5);
  EXPECT_EQ(a, b);
}

TEST(VectorIndexScanTest, RerankOverEveryRowMatchesExactSearch) {
  // A pool covering the whole table rescores every row exactly, so the
  // answer equals the exact index's whatever order the scan proposed.
  const int64_t n = 60, d = 8;
  Rng rng(11);
  Tensor rows = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  tmath::L2NormalizeRowsInPlace(&rows);
  const VectorIndex exact(rows.data(), n, d);
  const VectorIndex reranked(
      n, d,
      [n](const float*, float* scores) {
        for (int64_t i = 0; i < n; ++i) scores[i] = -static_cast<float>(i);
      },
      [&](int64_t id) { return rows.data() + id * d; }, /*pool=*/n);
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
  EXPECT_EQ(VectorIndex(1000, 4, scan, row, 64).RerankPool(10), 64);
  // The pool never exceeds the table.
  EXPECT_EQ(VectorIndex(20, 4, scan, row).RerankPool(10), 20);
  // An exact index rescores rows directly, with no scan pool.
  EXPECT_EQ(VectorIndex(nullptr, 0, 4).RerankPool(10), 0);
}

}  // namespace
}  // namespace sdea::core
