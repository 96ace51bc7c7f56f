// incr::IncrementalAligner: the zero-diff golden (an empty stream leaves
// every embedding bitwise-identical), affected-neighborhood masking (rows
// outside the k-hop set come out of an increment bitwise-intact), the
// bootstrap/repair lifecycle, repair against a full rescan of every
// promoted pair, and the SwapWithKg publish path.
#include "incr/aligner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "datagen/streaming.h"
#include "incr/update_log.h"
#include "kg/knowledge_graph.h"
#include "serve/snapshot.h"
#include "tensor/kernels.h"
#include "testing/kernel_config.h"

namespace sdea::incr {
namespace {

/// A ring of `n` entities (e_i -r-> e_{i+1}) with an attribute per entity;
/// built once per side with different prefixes, structurally isomorphic.
void BuildRing(kg::KnowledgeGraph* g, const std::string& prefix, int64_t n) {
  g->BeginBulkLoad();
  const kg::RelationId r = g->AddRelation("r");
  const kg::AttributeId at = g->AddAttribute("label");
  std::vector<kg::EntityId> ids;
  for (int64_t i = 0; i < n; ++i) {
    ids.push_back(g->AddEntity(prefix + std::to_string(i)));
  }
  for (int64_t i = 0; i < n; ++i) {
    g->AddRelationalTriple(ids[static_cast<size_t>(i)], r,
                           ids[static_cast<size_t>((i + 1) % n)]);
    g->AddAttributeTriple(ids[static_cast<size_t>(i)], at,
                          prefix + std::to_string(i));
  }
  g->EndBulkLoad();
}

std::vector<std::pair<kg::EntityId, kg::EntityId>> IdentitySeeds(int64_t k) {
  std::vector<std::pair<kg::EntityId, kg::EntityId>> seeds;
  for (int64_t i = 0; i < k; ++i) seeds.emplace_back(i, i);
  return seeds;
}

IncrementalAlignerOptions SmallOptions() {
  IncrementalAlignerOptions opts;
  opts.dim = 16;
  opts.base_epochs = 25;
  opts.incr_epochs = 10;
  return opts;
}

TEST(IncrementalAlignerTest, ValidationErrors) {
  kg::KnowledgeGraph empty1, empty2;
  IncrementalAligner bare(&empty1, &empty2, SmallOptions());
  EXPECT_FALSE(bare.ProcessIncrement().ok());
  EXPECT_EQ(bare.FitBase({}).code(), StatusCode::kInvalidArgument);

  kg::KnowledgeGraph kg1, kg2;
  BuildRing(&kg1, "e", 6);
  BuildRing(&kg2, "f", 6);
  IncrementalAligner aligner(&kg1, &kg2, SmallOptions());
  EXPECT_EQ(aligner.FitBase({{0, 99}}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(aligner.FitBase({{0, 0}, {0, 1}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(aligner.FitBase({{0, 0}, {1, 0}}).code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalAlignerTest, ZeroDiffStreamIsBitwiseNoOp) {
  kg::KnowledgeGraph kg1, kg2;
  BuildRing(&kg1, "e", 10);
  BuildRing(&kg2, "f", 10);
  IncrementalAligner aligner(&kg1, &kg2, SmallOptions());
  ASSERT_TRUE(aligner.FitBase(IdentitySeeds(5)).ok());

  const Tensor base1 = aligner.embeddings1();
  const Tensor base2 = aligner.embeddings2();

  // Stream an *empty* batch through the replay path: the bulk-load commit
  // advances nothing, the diff is empty, and the increment must leave the
  // model untouched down to the last bit.
  ApplyUpdate(KgUpdate{}, &kg1);
  ApplyUpdate(KgUpdate{}, &kg2);
  auto rep = aligner.ProcessIncrement();
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->no_op);
  EXPECT_EQ(rep->diff_rows, 0);
  EXPECT_EQ(rep->trained_triples, 0);

  ASSERT_EQ(aligner.embeddings1().size(), base1.size());
  EXPECT_EQ(std::memcmp(aligner.embeddings1().data(), base1.data(),
                        sizeof(float) * static_cast<size_t>(base1.size())),
            0);
  EXPECT_EQ(std::memcmp(aligner.embeddings2().data(), base2.data(),
                        sizeof(float) * static_cast<size_t>(base2.size())),
            0);
}

TEST(IncrementalAlignerTest, IncrementFreezesOutsideTheNeighborhood) {
  kg::KnowledgeGraph kg1, kg2;
  BuildRing(&kg1, "e", 30);
  BuildRing(&kg2, "f", 30);
  IncrementalAlignerOptions opts = SmallOptions();
  opts.k_hops = 1;
  IncrementalAligner aligner(&kg1, &kg2, opts);
  ASSERT_TRUE(aligner.FitBase(IdentitySeeds(10)).ok());
  const Tensor before1 = aligner.embeddings1();

  // One new entity per side, attached to e0/f0 — exactly the shape of a
  // streamed arrival batch.
  KgUpdate up1;
  up1.relational = {{"e0", "r", "e_new"}};
  KgUpdate up2;
  up2.relational = {{"f0", "r", "f_new"}};
  ApplyUpdate(up1, &kg1);
  ApplyUpdate(up2, &kg2);

  auto rep = aligner.ProcessIncrement();
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_FALSE(rep->no_op);
  EXPECT_EQ(rep->new_entities, 2);
  EXPECT_EQ(rep->diff_rows, 2);
  EXPECT_GT(rep->affected, 0);
  // touched = {e0, e_new} expanded 1 hop = {e29, e0, e1, e_new} per side.
  EXPECT_LE(rep->affected, 8);
  EXPECT_LT(rep->affected_frac(), 0.2);
  EXPECT_GT(rep->trained_triples, 0);
  EXPECT_LT(rep->trained_triples, 60);

  // A row far from the arrival (e15: two hops is the horizon, it is ~14
  // away) must come out bitwise-identical — the trainable mask gates every
  // SGD write.
  const int64_t d = opts.dim;
  EXPECT_EQ(std::memcmp(aligner.embeddings1().data() + 15 * d,
                        before1.data() + 15 * d,
                        sizeof(float) * static_cast<size_t>(d)),
            0);

  // The epoch cursor advanced: a follow-up with no changes is a no-op.
  auto rep2 = aligner.ProcessIncrement();
  ASSERT_TRUE(rep2.ok());
  EXPECT_TRUE(rep2->no_op);

  const auto metrics = aligner.Evaluate(IdentitySeeds(10));
  EXPECT_EQ(metrics.num_queries, 10);
}

TEST(IncrementalAlignerTest, BootstrapPromotesAndRepairDemotes) {
  kg::KnowledgeGraph kg1, kg2;
  BuildRing(&kg1, "e", 8);
  BuildRing(&kg2, "f", 8);
  IncrementalAlignerOptions opts = SmallOptions();
  // Make the whole ring affected so every eligible entity is a bootstrap
  // candidate, then promote any mutually-nearest eligible pair; demote
  // everything at the next repair (no cosine reaches 2.0).
  opts.k_hops = 8;
  opts.affected_frac_cap = 0.0;
  opts.bootstrap_threshold = -1.0f;
  opts.bootstrap_margin = 0.0f;
  opts.bootstrap_cap = 2;
  opts.repair_threshold = 2.0f;
  IncrementalAligner aligner(&kg1, &kg2, opts);
  ASSERT_TRUE(aligner.FitBase(IdentitySeeds(4)).ok());
  EXPECT_TRUE(aligner.promoted_pairs().empty());

  KgUpdate up;
  up.relational = {{"e0", "r", "e_extra"}};
  ApplyUpdate(up, &kg1);
  auto rep1 = aligner.ProcessIncrement();
  ASSERT_TRUE(rep1.ok()) << rep1.status().ToString();
  EXPECT_GT(rep1->promoted, 0);
  EXPECT_LE(rep1->promoted, 2);
  EXPECT_EQ(static_cast<int64_t>(aligner.promoted_pairs().size()),
            rep1->promoted);
  // Promoted pairs are never gold-merged and never duplicated.
  for (const auto& [a, b] : aligner.promoted_pairs()) {
    EXPECT_GE(a, 4);
    EXPECT_GE(b, 4);
  }

  // No graph changes, but the impossible repair threshold demotes every
  // promoted pair — a demotion-only increment re-embeds (not a no-op).
  auto rep2 = aligner.ProcessIncrement();
  ASSERT_TRUE(rep2.ok()) << rep2.status().ToString();
  EXPECT_FALSE(rep2->no_op);
  EXPECT_EQ(rep2->demoted, rep1->promoted);
  EXPECT_GT(rep2->trained_triples, 0);
}

using Pairs = std::vector<std::pair<kg::EntityId, kg::EntityId>>;

/// The promoted pairs a repair that rescans every pair against both whole
/// sides keeps, in order: a pair stays when its cosine reaches `threshold`
/// and no other row of either side scores strictly above it. Scores come
/// from unit-row copies of the public tables through Gemv.
Pairs FullScanKeeps(const IncrementalAligner& aligner, float threshold) {
  Tensor s1 = aligner.embeddings1();
  Tensor s2 = aligner.embeddings2();
  tmath::L2NormalizeRowsInPlace(&s1);
  tmath::L2NormalizeRowsInPlace(&s2);
  const int64_t n1 = s1.dim(0);
  const int64_t n2 = s2.dim(0);
  const int64_t d = s1.dim(1);
  std::vector<float> to2(static_cast<size_t>(n2));
  std::vector<float> to1(static_cast<size_t>(n1));
  Pairs kept;
  for (const auto& [a, b] : aligner.promoted_pairs()) {
    tmath::kernels::Gemv(s2.data(), n2, d, s1.data() + a * d, to2.data());
    tmath::kernels::Gemv(s1.data(), n1, d, s2.data() + b * d, to1.data());
    const float score = to2[static_cast<size_t>(b)];
    bool keep = score >= threshold;
    for (int64_t j = 0; j < n2; ++j) {
      if (j != b && to2[static_cast<size_t>(j)] > score) keep = false;
    }
    for (int64_t i = 0; i < n1; ++i) {
      if (i != a && to1[static_cast<size_t>(i)] > score) keep = false;
    }
    if (keep) kept.emplace_back(a, b);
  }
  return kept;
}

// Every increment's repair must decide exactly what a full rescan of every
// promoted pair decides, whatever shortcut it takes: the demoted count is
// the rescan's drop count and the surviving pairs lead promoted_pairs() in
// their old order (bootstrap appends after them).
TEST(IncrementalAlignerTest, RepairMatchesFullRescan) {
  std::vector<tmath::SimdLevel> levels = {tmath::SimdLevel::kScalar};
  if (tmath::Avx2Supported()) levels.push_back(tmath::SimdLevel::kAvx2);
  for (tmath::SimdLevel level : levels) {
    SCOPED_TRACE(tmath::SimdLevelName(level));
    testing::ScopedSimdLevel simd(level);
    datagen::StreamingConfig config = datagen::StreamingPreset().config;
    config.base.num_matched = 600;
    config.num_increments = 20;
    datagen::StreamingBenchmark stream = datagen::GenerateStreaming(config);
    const size_t n = stream.base_truth.size();
    const Pairs seeds(
        stream.base_truth.begin(),
        stream.base_truth.begin() + static_cast<std::ptrdiff_t>(n * 3 / 10));
    IncrementalAlignerOptions opts;
    opts.dim = 48;
    opts.base_epochs = 60;
    opts.incr_epochs = 15;
    opts.affected_frac_cap = 0.10;
    opts.pull_lr = 0.01f;
    IncrementalAligner aligner(&stream.kg1, &stream.kg2, opts);
    ASSERT_TRUE(aligner.FitBase(seeds).ok());

    int64_t checked = 0;
    int64_t demoted = 0;
    for (const UpdateBatch& batch : stream.increments) {
      const Pairs kept = FullScanKeeps(aligner, opts.repair_threshold);
      const int64_t before =
          static_cast<int64_t>(aligner.promoted_pairs().size());
      ApplyUpdate(batch.kg1, &stream.kg1);
      ApplyUpdate(batch.kg2, &stream.kg2);
      auto rep = aligner.ProcessIncrement();
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      EXPECT_EQ(rep->demoted, before - static_cast<int64_t>(kept.size()));
      const Pairs& after = aligner.promoted_pairs();
      ASSERT_GE(after.size(), kept.size());
      EXPECT_TRUE(std::equal(kept.begin(), kept.end(), after.begin()));
      checked += before;
      demoted += rep->demoted;
    }
    // The stream must exercise both outcomes: pairs that survive several
    // repairs and pairs that fall.
    EXPECT_GT(demoted, 0);
    EXPECT_GT(checked, 2 * demoted);
  }
}

TEST(IncrementalAlignerTest, PublishPairsEmbeddingsWithPinnedKg) {
  kg::KnowledgeGraph kg1, kg2;
  BuildRing(&kg1, "e", 6);
  BuildRing(&kg2, "f", 6);
  IncrementalAligner aligner(&kg1, &kg2, SmallOptions());

  serve::SnapshotManager manager;
  EXPECT_FALSE(aligner.Publish(&manager).ok());  // Before FitBase.

  ASSERT_TRUE(aligner.FitBase(IdentitySeeds(3)).ok());
  auto version = aligner.Publish(&manager);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1u);

  auto snap = manager.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->has_kg());
  EXPECT_EQ(snap->size(), 6);
  EXPECT_EQ(snap->kg.num_entities(), 6);
  EXPECT_EQ(snap->kg.epoch(), kg2.Snapshot().epoch());
}

}  // namespace
}  // namespace sdea::incr
