// Cross-cutting property tests: invariants that must hold for arbitrary
// seeds/configurations, swept with parameterized gtest.
#include <gtest/gtest.h>

#include <set>

#include "core/candidate_generator.h"
#include "core/stable_matching.h"
#include "datagen/generator.h"
#include "eval/metrics.h"
#include "text/tokenizer.h"

namespace sdea {
namespace {

// ---- Metric invariants over random embeddings --------------------------------

class MetricInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricInvariantTest, OrderingAndBounds) {
  Rng rng(GetParam());
  const int64_t n = 20, m = 40, d = 8;
  Tensor src = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  Tensor tgt = Tensor::RandomNormal({m, d}, 1.0f, &rng);
  std::vector<int64_t> gold;
  for (int64_t i = 0; i < n; ++i) {
    gold.push_back(static_cast<int64_t>(rng.UniformInt(m)));
  }
  const eval::RankingMetrics metrics =
      eval::EvaluateAlignment(src, tgt, gold);
  // H@1 <= H@10, both in [0,100]; MRR in [H@1/100 scale, 1].
  EXPECT_LE(metrics.hits_at_1, metrics.hits_at_10);
  EXPECT_GE(metrics.hits_at_1, 0.0);
  EXPECT_LE(metrics.hits_at_10, 100.0);
  EXPECT_GE(metrics.mrr * 100.0, metrics.hits_at_1 - 1e-9);
  EXPECT_LE(metrics.mrr, 1.0 + 1e-9);
  EXPECT_EQ(metrics.num_queries, n);
}

TEST_P(MetricInvariantTest, SelfAlignmentIsPerfect) {
  Rng rng(GetParam() ^ 0xf00d);
  Tensor emb = Tensor::RandomNormal({25, 6}, 1.0f, &rng);
  std::vector<int64_t> identity;
  for (int64_t i = 0; i < 25; ++i) identity.push_back(i);
  const eval::RankingMetrics m = eval::EvaluateAlignment(emb, emb, identity);
  EXPECT_DOUBLE_EQ(m.hits_at_1, 100.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricInvariantTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- Candidate generation invariants ------------------------------------------

class CandidateInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CandidateInvariantTest, GoldAlwaysInCandidatesOfItself) {
  // When source rows equal target rows, row i's top candidate is i.
  Rng rng(GetParam());
  Tensor emb = Tensor::RandomNormal({30, 8}, 1.0f, &rng);
  const auto c = core::GenerateCandidates(emb, emb, 3);
  for (int64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(c[static_cast<size_t>(i)][0], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateInvariantTest,
                         ::testing::Values(11u, 12u, 13u));

// ---- Stable matching invariants ------------------------------------------------

class StableMatchInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StableMatchInvariantTest, OneToOneAndStable) {
  Rng rng(GetParam());
  const int64_t n = 12;
  Tensor scores = Tensor::RandomNormal({n, n}, 1.0f, &rng);
  const auto match = core::StableMatch(scores);
  std::set<int64_t> used;
  std::vector<int64_t> holder(static_cast<size_t>(n), -1);
  for (int64_t s = 0; s < n; ++s) {
    ASSERT_GE(match[static_cast<size_t>(s)], 0);
    EXPECT_TRUE(used.insert(match[static_cast<size_t>(s)]).second);
    holder[static_cast<size_t>(match[static_cast<size_t>(s)])] = s;
  }
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t t = 0; t < n; ++t) {
      if (t == match[static_cast<size_t>(s)]) continue;
      const bool s_prefers =
          scores[s * n + t] >
          scores[s * n + match[static_cast<size_t>(s)]];
      const bool t_prefers =
          scores[s * n + t] >
          scores[holder[static_cast<size_t>(t)] * n + t];
      EXPECT_FALSE(s_prefers && t_prefers);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StableMatchInvariantTest,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ---- Tokenizer round-trip property ---------------------------------------------

class TokenizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerPropertyTest, TrainedCorpusEncodesWithoutUnk) {
  // Any text drawn from the training corpus must tokenize without [UNK].
  datagen::GeneratorConfig cfg;
  cfg.seed = GetParam();
  cfg.num_matched = 150;
  const auto bench = datagen::BenchmarkGenerator().Generate(cfg);
  std::vector<std::string> corpus;
  bench.kg1.Snapshot().ForEachAttribute(
      [&](int64_t, kg::EntityId, kg::AttributeId, const std::string& value) {
        corpus.push_back(value);
      });
  text::SubwordTokenizer tok;
  ASSERT_TRUE(tok.Train(corpus, text::TokenizerConfig{}).ok());
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto& sample = corpus[rng.UniformInt(corpus.size())];
    for (int64_t id : tok.Encode(sample)) {
      EXPECT_NE(id, text::kUnkId) << sample;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerPropertyTest,
                         ::testing::Values(31u, 32u));

// ---- Generator invariants over presets and seeds --------------------------------

struct GenCase {
  uint64_t seed;
  datagen::NameMode mode;
};

class GeneratorInvariantTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorInvariantTest, StructuralInvariants) {
  datagen::GeneratorConfig cfg;
  cfg.seed = GetParam().seed;
  cfg.num_matched = 200;
  cfg.kg2_name_mode = GetParam().mode;
  const auto b = datagen::BenchmarkGenerator().Generate(cfg);
  // Every relational triple references valid entities.
  for (const auto* g : {&b.kg1, &b.kg2}) {
    const kg::KgSnapshot snap = g->Snapshot();
    snap.ForEachRelational(
        [&](int64_t, kg::EntityId head, kg::RelationId, kg::EntityId tail) {
          ASSERT_GE(head, 0);
          ASSERT_LT(head, g->num_entities());
          ASSERT_GE(tail, 0);
          ASSERT_LT(tail, g->num_entities());
          ASSERT_NE(head, tail);  // Generator never emits self-loops.
        });
    snap.ForEachAttribute([&](int64_t, kg::EntityId entity, kg::AttributeId,
                              const std::string& value) {
      ASSERT_GE(entity, 0);
      ASSERT_LT(entity, g->num_entities());
      EXPECT_FALSE(value.empty());
    });
    // Entity names are unique (AddEntity would otherwise have merged).
    EXPECT_EQ(g->num_entities(), g->ComputeStatistics().num_entities);
  }
  // Degree bookkeeping: sum of degrees == 2 * |triples|.
  const kg::KgSnapshot snap1 = b.kg1.Snapshot();
  int64_t degree_sum = 0;
  for (kg::EntityId e = 0; e < b.kg1.num_entities(); ++e) {
    degree_sum += snap1.DegreeOf(e);
  }
  EXPECT_EQ(degree_sum, 2 * snap1.num_relational_triples());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GeneratorInvariantTest,
    ::testing::Values(GenCase{41, datagen::NameMode::kShared},
                      GenCase{42, datagen::NameMode::kTranslated},
                      GenCase{43, datagen::NameMode::kOpaqueIds},
                      GenCase{44, datagen::NameMode::kTranslated}));

}  // namespace
}  // namespace sdea
