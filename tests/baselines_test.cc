// Baseline re-implementations: each must fit on a small generated pair,
// expose sane embeddings, and show its characteristic strength/weakness
// (e.g. BERT-INT-lite collapsing on opaque names).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/bert_int_lite.h"
#include "baselines/cea.h"
#include "baselines/gcn_align.h"
#include "baselines/mtranse.h"
#include "baselines/transe_align.h"
#include "baselines/union_graph.h"
#include "datagen/generator.h"
#include "text/tokenizer.h"

namespace sdea::baselines {
namespace {

struct Fixture {
  datagen::GeneratedBenchmark bench;
  kg::AlignmentSeeds seeds;
  AlignInput input() const {
    return AlignInput{bench.kg1, bench.kg2, seeds};
  }
};

Fixture MakeFixture(datagen::NameMode mode = datagen::NameMode::kShared) {
  datagen::GeneratorConfig g;
  g.seed = 55;
  g.num_matched = 120;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = mode;
  g.min_degree = 2;  // Keep the structural baselines fed.
  Fixture f;
  f.bench = datagen::BenchmarkGenerator().Generate(g);
  f.seeds = kg::AlignmentSeeds::Split(f.bench.ground_truth, 5,
                                      /*train=*/3, /*valid=*/1, /*test=*/6);
  return f;
}

void ExpectFiniteEmbeddings(const EntityAligner& aligner) {
  for (const Tensor* t : {&aligner.embeddings1(), &aligner.embeddings2()}) {
    ASSERT_GT(t->size(), 0);
    for (int64_t i = 0; i < t->size(); ++i) {
      ASSERT_TRUE(std::isfinite((*t)[i]));
    }
  }
}

TEST(TransETest, TrainingReducesTripleDistance) {
  Fixture f = MakeFixture();
  TransEConfig c;
  c.dim = 16;
  c.epochs = 30;
  TransE model(f.bench.kg1.num_entities(), f.bench.kg1.num_relations(), c);
  const std::vector<kg::RelationalTriple> triples =
      RelationalRows(f.bench.kg1);
  // Average ||h + r - t|| over triples, before vs after training.
  auto avg_distance = [&]() {
    const Tensor& e = model.raw_entities();
    double sum = 0.0;
    for (const auto& t : triples) {
      const Tensor h = e.Row(t.head);
      const Tensor tt = e.Row(t.tail);
      sum += tmath::SquaredL2Distance(h, tt);
    }
    return sum / triples.size();
  };
  const double before = avg_distance();
  model.Train(triples);
  // Embeddings must have moved (head/tail of linked triples get related).
  const double after = avg_distance();
  EXPECT_NE(before, after);
}

TEST(MTransETest, FitsAndEvaluates) {
  Fixture f = MakeFixture();
  MTransE::Config c;
  c.transe.dim = 16;
  c.transe.epochs = 30;
  c.mapping_epochs = 50;
  MTransE m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  ExpectFiniteEmbeddings(m);
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_EQ(metrics.num_queries,
            static_cast<int64_t>(f.seeds.test.size()));
  EXPECT_EQ(m.name(), "MTransE");
}

TEST(TransEAlignTest, SeedSharingBeatsChanceOnHits10) {
  Fixture f = MakeFixture();
  TransEAlign::Config c;
  c.transe.dim = 24;
  c.transe.epochs = 60;
  TransEAlign m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  ExpectFiniteEmbeddings(m);
  const auto metrics = m.Evaluate(f.seeds.test);
  // Chance H@10 ~ 10/126 = 8%.
  EXPECT_GT(metrics.hits_at_10, 12.0);
}

TEST(BootEaTest, BootstrappingAddsPairs) {
  Fixture f = MakeFixture();
  TransEConfig tc;
  tc.dim = 24;
  tc.epochs = 50;
  TransEAlign::Config c = BootEaConfig(tc);
  c.bootstrap_threshold = 0.5f;
  TransEAlign m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(m.name(), "BootEA");
  EXPECT_GE(m.bootstrapped_pairs(), 0);
  ExpectFiniteEmbeddings(m);
}

TEST(GcnAlignTest, AllFlavoursFit) {
  Fixture f = MakeFixture();
  for (GcnAlign::Config c :
       {GcnConfig(), GcnAlignConfig(), GatAlignConfig()}) {
    c.epochs = 30;
    c.feature_dim = 16;
    c.hidden_dim = 16;
    c.out_dim = 16;
    GcnAlign m(c);
    ASSERT_TRUE(m.Fit(f.input()).ok()) << c.display_name;
    ExpectFiniteEmbeddings(m);
    const auto metrics = m.Evaluate(f.seeds.test);
    EXPECT_EQ(metrics.num_queries,
              static_cast<int64_t>(f.seeds.test.size()));
  }
}

TEST(GcnAlignTest, LearnsStructureAboveChance) {
  Fixture f = MakeFixture();
  GcnAlign::Config c = GcnConfig();
  c.epochs = 80;
  GcnAlign m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_GT(metrics.hits_at_10, 12.0);
}

core::TextEncoderConfig TinyTextConfig() {
  core::TextEncoderConfig c;
  c.encoder.dim = 16;
  c.encoder.num_layers = 1;
  c.encoder.ff_dim = 32;
  c.encoder.max_len = 16;
  c.out_dim = 16;
  c.max_epochs = 6;
  c.patience = 3;
  c.ssl_epochs = 1;
  c.pretrain.epochs = 6;
  return c;
}

TEST(BertIntLiteTest, StrongOnSharedNames) {
  Fixture f = MakeFixture(datagen::NameMode::kShared);
  BertIntLite::Config c;
  c.text = TinyTextConfig();
  BertIntLite m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_GT(metrics.hits_at_10, 40.0);
}

TEST(BertIntLiteTest, CollapsesOnOpaqueIds) {
  // The paper's Table V: with Wikidata Q-ids as names, the name-only
  // baseline "does not even work".
  Fixture f = MakeFixture(datagen::NameMode::kOpaqueIds);
  BertIntLite::Config c;
  c.text = TinyTextConfig();
  BertIntLite m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_LT(metrics.hits_at_1, 10.0);
}

TEST(UnionGraphTest, SeedMergeSharesSlotsAndSplitUnionResolvesThem) {
  // KG1 has 3 entities, KG2 has 2; the seed (1, 0) gives KG2 entity 0
  // (union id 3) KG1 entity 1's slot.
  const std::vector<int64_t> merge = SeedMerge(3, 2, {{1, 0}});
  EXPECT_EQ(merge, (std::vector<int64_t>{0, 1, 2, 1, 4}));
  // Six rows: the five union slots and one trailing non-entity row.
  Tensor table({6, 2});
  for (int64_t i = 0; i < table.size(); ++i) table[i] = static_cast<float>(i);
  const auto [m1, m2] = SplitUnion(table, 3, merge);
  ASSERT_EQ(m1.dim(0), 3);
  ASSERT_EQ(m2.dim(0), 2);
  EXPECT_EQ(m1[2 * 2], table[2 * 2]);
  EXPECT_EQ(m2[0], table[1 * 2]);      // Merged onto slot 1.
  EXPECT_EQ(m2[2 + 1], table[4 * 2 + 1]);
  // Identity: every table row belongs to the union.
  const auto [i1, i2] = SplitUnion(table, 4);
  ASSERT_EQ(i1.dim(0), 4);
  ASSERT_EQ(i2.dim(0), 2);
  EXPECT_EQ(i2[0], table[4 * 2]);
}

TEST(UnionGraphTest, MeanTokenVectorsSkipsTokenlessTexts) {
  text::SubwordTokenizer tokenizer;
  text::TokenizerConfig config;
  config.num_merges = 8;
  ASSERT_TRUE(tokenizer.Train({"alpha beta", "beta gamma"}, config).ok());
  Tensor table({tokenizer.vocab().size(), 2});
  for (int64_t i = 0; i < table.size(); ++i) {
    table[i] = 0.25f * static_cast<float>(i % 7);
  }
  Tensor rows({2, 2}, 9.0f);
  MeanTokenVectors({"alpha gamma", ""}, tokenizer, table, &rows);
  const std::vector<int64_t> ids = tokenizer.Encode("alpha gamma");
  ASSERT_FALSE(ids.empty());
  for (int64_t j = 0; j < 2; ++j) {
    float sum = 0.0f;
    for (int64_t id : ids) sum += table[id * 2 + j];
    EXPECT_EQ(rows[j], sum * (1.0f / static_cast<float>(ids.size())));
    EXPECT_EQ(rows[2 + j], 9.0f);  // No tokens: the row keeps its value.
  }
}

TEST(CeaTest, FusedScoresAndStableMatching) {
  Fixture f = MakeFixture();
  Cea::Config c;
  c.gcn.epochs = 30;
  Cea m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(m.fused_scores().dim(0), f.bench.kg1.num_entities());
  EXPECT_EQ(m.fused_scores().dim(1), f.bench.kg2.num_entities());
  const auto emb_metrics = m.Evaluate(f.seeds.test);
  const double stable_h1 = m.StableHits1(f.seeds.test);
  // With near-identical names, string similarity should carry CEA high.
  EXPECT_GT(emb_metrics.hits_at_1, 50.0);
  // Stable matching must not collapse relative to greedy ranking.
  EXPECT_GE(stable_h1, emb_metrics.hits_at_1 - 10.0);
}

}  // namespace
}  // namespace sdea::baselines
