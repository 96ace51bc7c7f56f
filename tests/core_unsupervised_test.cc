#include "core/unsupervised.h"

#include <gtest/gtest.h>

#include "datagen/generator.h"

namespace sdea::core {
namespace {

AttributeModuleConfig TinyAttrConfig() {
  AttributeModuleConfig c;
  c.text.encoder.dim = 24;
  c.text.encoder.num_layers = 1;
  c.text.encoder.ff_dim = 48;
  c.text.encoder.max_len = 40;
  c.text.out_dim = 24;
  c.text.pretrain.epochs = 10;
  return c;
}

TEST(MutualNearestPairsTest, KeepsFirstMaximaThatPointAtEachOther) {
  // Row 0 ties columns 0 and 2 and keeps the first; column 0 ties rows 0
  // and 1 and keeps the first. Row 2's best column (1) prefers row 1.
  const Tensor scores({3, 3}, std::vector<float>{0.9f, 0.1f, 0.9f,  //
                                                 0.9f, 0.8f, 0.2f,  //
                                                 0.0f, 0.5f, 0.4f});
  const auto pairs = MutualNearestPairs(scores);
  EXPECT_EQ(pairs, (std::vector<std::pair<int64_t, int64_t>>{{0, 0}}));
  EXPECT_TRUE(MutualNearestPairs(Tensor({2, 0})).empty());
  EXPECT_TRUE(MutualNearestPairs(Tensor({0, 3})).empty());
}

TEST(UnsupervisedTest, MinesHighPrecisionSeedsOnSharedNames) {
  datagen::GeneratorConfig g;
  g.seed = 91;
  g.num_matched = 150;
  g.kg1_lang_seed = 2;
  g.kg2_lang_seed = 2;
  g.kg2_name_mode = datagen::NameMode::kShared;
  const auto bench = datagen::BenchmarkGenerator().Generate(g);

  UnsupervisedOptions opt;
  opt.min_similarity = 0.7f;
  auto pseudo = MinePseudoSeeds(bench.kg1, bench.kg2, TinyAttrConfig(), opt,
                                bench.pretrain_corpus);
  ASSERT_TRUE(pseudo.ok()) << pseudo.status().ToString();
  EXPECT_GT(pseudo->accepted, 20);
  // Mutual-NN + threshold on shared-name data must be mostly correct.
  EXPECT_GT(PseudoSeedPrecision(*pseudo, bench.ground_truth), 70.0);
  // Split bookkeeping.
  EXPECT_EQ(pseudo->seeds.train.size() + pseudo->seeds.valid.size(),
            static_cast<size_t>(pseudo->accepted));
  EXPECT_TRUE(pseudo->seeds.test.empty());
}

TEST(UnsupervisedTest, ThresholdControlsVolume) {
  datagen::GeneratorConfig g;
  g.seed = 92;
  g.num_matched = 120;
  g.kg1_lang_seed = 3;
  g.kg2_lang_seed = 3;
  g.kg2_name_mode = datagen::NameMode::kShared;
  const auto bench = datagen::BenchmarkGenerator().Generate(g);
  UnsupervisedOptions lax;
  lax.min_similarity = 0.1f;
  UnsupervisedOptions strict;
  strict.min_similarity = 0.95f;
  auto many = MinePseudoSeeds(bench.kg1, bench.kg2, TinyAttrConfig(), lax,
                              bench.pretrain_corpus);
  auto few = MinePseudoSeeds(bench.kg1, bench.kg2, TinyAttrConfig(), strict,
                             bench.pretrain_corpus);
  ASSERT_TRUE(many.ok());
  ASSERT_TRUE(few.ok());
  EXPECT_GT(many->accepted, few->accepted);
}

TEST(UnsupervisedTest, MaxPairsCap) {
  datagen::GeneratorConfig g;
  g.seed = 93;
  g.num_matched = 120;
  g.kg1_lang_seed = 3;
  g.kg2_lang_seed = 3;
  g.kg2_name_mode = datagen::NameMode::kShared;
  const auto bench = datagen::BenchmarkGenerator().Generate(g);
  UnsupervisedOptions opt;
  opt.min_similarity = 0.1f;
  opt.max_pairs = 10;
  auto pseudo = MinePseudoSeeds(bench.kg1, bench.kg2, TinyAttrConfig(), opt,
                                bench.pretrain_corpus);
  ASSERT_TRUE(pseudo.ok());
  EXPECT_EQ(pseudo->accepted, 10);
}

TEST(PseudoSeedPrecisionTest, Arithmetic) {
  PseudoSeeds p;
  p.seeds.train = {{0, 0}, {1, 1}, {2, 9}};
  std::vector<std::pair<kg::EntityId, kg::EntityId>> gold = {
      {0, 0}, {1, 1}, {2, 2}};
  EXPECT_NEAR(PseudoSeedPrecision(p, gold), 200.0 / 3.0, 1e-9);
  PseudoSeeds empty;
  EXPECT_EQ(PseudoSeedPrecision(empty, gold), 0.0);
}

}  // namespace
}  // namespace sdea::core
