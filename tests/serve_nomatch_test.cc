// Serve-layer no-match handling: non-finite similarities are never served
// (regression: an all-NaN snapshot row used to be returned as the "best"
// neighbor), and the calibrated abstain rule turns weak/ambiguous answers
// into explicit OK-but-empty no-match responses.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/embedding_store.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace sdea::serve {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

core::EmbeddingStore StoreFromRows(
    const std::vector<std::vector<float>>& rows) {
  const int64_t n = static_cast<int64_t>(rows.size());
  const int64_t d = static_cast<int64_t>(rows[0].size());
  Tensor embeddings({n, d});
  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) {
    names.push_back("e" + std::to_string(i));
    for (int64_t j = 0; j < d; ++j) {
      embeddings[i * d + j] =
          rows[static_cast<size_t>(i)][static_cast<size_t>(j)];
    }
  }
  auto store = core::EmbeddingStore::Create(std::move(names),
                                            std::move(embeddings));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

TEST(ServeNoMatchTest, NaNRowsAreNeverServed) {
  // One diverged (all-NaN) row among finite ones: it must not appear in
  // any answer, whatever its NaN "similarity" compares like in top-k.
  AlignmentServer server;
  server.SwapSnapshot(StoreFromRows({{1.0f, 0.0f},
                                     {0.0f, 1.0f},
                                     {kNaN, kNaN},
                                     {0.7f, 0.7f}}));
  auto result =
      server.AlignEmbedding(Tensor::FromVector({1.0f, 0.0f}), 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  for (const Neighbor& nb : *result) {
    EXPECT_TRUE(std::isfinite(nb.similarity));
    EXPECT_NE(nb.name, "e2");
  }
}

TEST(ServeNoMatchTest, AllNaNSnapshotYieldsEmptyOkAnswer) {
  // Pre-fix this returned NaN-scored neighbors with status OK.
  AlignmentServer server;
  server.SwapSnapshot(StoreFromRows({{kNaN, kNaN}, {kNaN, kNaN}}));
  auto result =
      server.AlignEmbedding(Tensor::FromVector({1.0f, 0.0f}), 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(ServeNoMatchTest, AbstainThresholdTurnsWeakBestIntoNoMatch) {
  ServerOptions options;
  options.abstain.enabled = true;
  options.abstain.min_similarity = 0.9f;
  AlignmentServer server(options);
  server.SwapSnapshot(StoreFromRows({{1.0f, 0.0f}, {0.0f, 1.0f}}));

  // Strong best candidate: served normally.
  auto hit = server.AlignEmbedding(Tensor::FromVector({1.0f, 0.05f}), 1);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ(hit->front().name, "e0");

  // Equidistant query: best similarity ~0.707 fails the floor, so the
  // explicit no-match answer is OK + empty, counted in the stats.
  auto miss = server.AlignEmbedding(Tensor::FromVector({1.0f, 1.0f}), 2);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->empty());
  const StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.no_match_answers, 1u);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.failed_queries, 0u);
}

TEST(ServeNoMatchTest, MarginRuleRejectsAmbiguousAnswers) {
  ServerOptions options;
  options.abstain.enabled = true;
  options.abstain.min_margin = 0.1f;
  AlignmentServer server(options);
  // Two near-duplicate entries plus a distant one.
  server.SwapSnapshot(StoreFromRows({{1.0f, 0.0f},
                                     {0.998f, 0.063f},
                                     {0.0f, 1.0f}}));

  // Query near the duplicates: top1-top2 margin is tiny -> no-match.
  auto ambiguous =
      server.AlignEmbedding(Tensor::FromVector({1.0f, 0.03f}), 3);
  ASSERT_TRUE(ambiguous.ok());
  EXPECT_TRUE(ambiguous->empty());

  // k = 1 returns a single candidate: no runner-up in the answer, so the
  // margin criterion cannot reject it.
  auto single = server.AlignEmbedding(Tensor::FromVector({1.0f, 0.03f}), 1);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->size(), 1u);
}

TEST(ServeNoMatchTest, DisabledAbstainKeepsForcedAnswers) {
  AlignmentServer server;
  server.SwapSnapshot(StoreFromRows({{1.0f, 0.0f}, {0.0f, 1.0f}}));
  auto result = server.AlignEmbedding(Tensor::FromVector({1.0f, 1.0f}), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // Weak but served: no rule configured.
  EXPECT_EQ(server.stats().no_match_answers, 0u);
}

}  // namespace
}  // namespace sdea::serve
