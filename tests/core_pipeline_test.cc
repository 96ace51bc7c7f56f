#include "core/alignment_pipeline.h"

#include <gtest/gtest.h>

#include <set>

#include "baselines/jape.h"
#include "core/stable_matching.h"
#include "datagen/generator.h"

namespace sdea::core {
namespace {

struct Fixture {
  datagen::GeneratedBenchmark bench;
  kg::AlignmentSeeds seeds;
};

Fixture MakeFixture() {
  datagen::GeneratorConfig g;
  g.seed = 88;
  g.num_matched = 150;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = datagen::NameMode::kShared;
  g.pretrain_sentences = 300;
  Fixture f;
  f.bench = datagen::BenchmarkGenerator().Generate(g);
  f.seeds = kg::AlignmentSeeds::Split(f.bench.ground_truth, 5);
  return f;
}

PipelineConfig FastConfig() {
  PipelineConfig c;
  c.model.attribute.text.encoder.dim = 24;
  c.model.attribute.text.encoder.num_layers = 1;
  c.model.attribute.text.encoder.ff_dim = 48;
  c.model.attribute.text.encoder.max_len = 40;
  c.model.attribute.text.out_dim = 24;
  c.model.attribute.text.max_epochs = 6;
  c.model.attribute.text.patience = 3;
  c.model.attribute.text.negatives_per_pair = 3;
  c.model.attribute.text.ssl_epochs = 1;
  c.model.relation.max_epochs = 6;
  c.model.relation.patience = 3;
  return c;
}

TEST(PipelineTest, RunProducesDecisionsAndMetrics) {
  Fixture f = MakeFixture();
  AlignmentPipeline pipeline;
  auto result = pipeline.Run(f.bench.kg1, f.bench.kg2, f.seeds,
                             FastConfig(), f.bench.pretrain_corpus);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->pairs.size(), 0u);
  EXPECT_GT(result->test_metrics.hits_at_10, 20.0);
  EXPECT_GE(result->matching_accuracy, 0.0);
  // All accepted pairs meet the similarity threshold and are 1-1.
  std::set<kg::EntityId> targets;
  for (const AlignedPair& p : result->pairs) {
    EXPECT_GE(p.similarity, FastConfig().min_similarity);
    EXPECT_TRUE(targets.insert(p.target).second);
  }
}

TEST(PipelineTest, GreedyModeAllowsSharedTargets) {
  Fixture f = MakeFixture();
  PipelineConfig config = FastConfig();
  config.use_stable_matching = false;
  config.min_similarity = -1.0f;  // Accept everything.
  AlignmentPipeline pipeline;
  auto result = pipeline.Run(f.bench.kg1, f.bench.kg2, f.seeds, config,
                             f.bench.pretrain_corpus);
  ASSERT_TRUE(result.ok());
  // Greedy accepts one pair per source entity.
  EXPECT_EQ(result->pairs.size(),
            static_cast<size_t>(f.bench.kg1.num_entities()));
}

TEST(PipelineTest, ThresholdFiltersWeakMatches) {
  Fixture f = MakeFixture();
  PipelineConfig strict = FastConfig();
  strict.min_similarity = 0.999f;
  AlignmentPipeline pipeline;
  auto result = pipeline.Run(f.bench.kg1, f.bench.kg2, f.seeds, strict,
                             f.bench.pretrain_corpus);
  ASSERT_TRUE(result.ok());
  PipelineConfig lax = FastConfig();
  lax.min_similarity = -1.0f;
  AlignmentPipeline pipeline2;
  auto result2 = pipeline2.Run(f.bench.kg1, f.bench.kg2, f.seeds, lax,
                               f.bench.pretrain_corpus);
  ASSERT_TRUE(result2.ok());
  EXPECT_LT(result->pairs.size(), result2->pairs.size());
}

TEST(PipelineTest, TopTargetsOrderedAndScored) {
  Fixture f = MakeFixture();
  AlignmentPipeline pipeline;
  ASSERT_TRUE(pipeline
                  .Run(f.bench.kg1, f.bench.kg2, f.seeds, FastConfig(),
                       f.bench.pretrain_corpus)
                  .ok());
  const auto top = pipeline.TopTargets(f.seeds.test.front().first, 5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].similarity, top[i].similarity);
  }
}

TEST(PipelineTest, CalibratedThresholdFitsOnValidRows) {
  Fixture f = MakeFixture();
  PipelineConfig config = FastConfig();
  config.calibrate_threshold = true;
  AlignmentPipeline pipeline;
  auto result = pipeline.Run(f.bench.kg1, f.bench.kg2, f.seeds, config,
                             f.bench.pretrain_corpus);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The score matrix the decision layer ranks: cosine over the final
  // entity embeddings.
  Tensor e1 = pipeline.model().embeddings1();
  Tensor e2 = pipeline.model().embeddings2();
  tmath::L2NormalizeRowsInPlace(&e1);
  tmath::L2NormalizeRowsInPlace(&e2);
  const Tensor scores = tmath::MatmulTransposeB(e1, e2);

  // The threshold is calibrated on the seeds.valid rows of that matrix.
  ASSERT_FALSE(f.seeds.valid.empty());
  Tensor dev({static_cast<int64_t>(f.seeds.valid.size()), scores.dim(1)});
  std::vector<int64_t> dev_gold;
  for (size_t i = 0; i < f.seeds.valid.size(); ++i) {
    dev.SetRow(static_cast<int64_t>(i), scores.Row(f.seeds.valid[i].first));
    dev_gold.push_back(f.seeds.valid[i].second);
  }
  const eval::AbstainThreshold expected =
      eval::CalibrateAbstainThreshold(dev, dev_gold);
  ASSERT_TRUE(expected.enabled);
  EXPECT_TRUE(result->threshold.enabled);
  EXPECT_EQ(result->threshold.min_similarity, expected.min_similarity);
  EXPECT_EQ(result->threshold.min_margin, expected.min_margin);
  EXPECT_EQ(result->threshold.dev_f1, expected.dev_f1);

  // The decisions are the stable matching with that threshold applied.
  std::vector<int64_t> decisions = StableMatch(scores);
  eval::ApplyAbstainThreshold(scores, expected, &decisions);
  EXPECT_EQ(result->decisions, decisions);
}

TEST(JapeTest, FitsAndUsesBothChannels) {
  Fixture f = MakeFixture();
  baselines::Jape::Config c;
  c.transe.dim = 16;
  c.transe.epochs = 30;
  c.attr_dim = 16;
  baselines::Jape m(c);
  const baselines::AlignInput input{f.bench.kg1, f.bench.kg2, f.seeds};
  ASSERT_TRUE(m.Fit(input).ok());
  EXPECT_EQ(m.name(), "JAPE");
  // Fused embedding = structure block + attribute block.
  EXPECT_EQ(m.embeddings1().dim(1), 16 + 16);
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_EQ(metrics.num_queries,
            static_cast<int64_t>(f.seeds.test.size()));
}

}  // namespace
}  // namespace sdea::core
