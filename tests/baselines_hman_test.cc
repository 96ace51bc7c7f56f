#include "baselines/hman.h"

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/generator.h"

namespace sdea::baselines {
namespace {

struct Fixture {
  datagen::GeneratedBenchmark bench;
  kg::AlignmentSeeds seeds;
  AlignInput input() const {
    return AlignInput{bench.kg1, bench.kg2, seeds};
  }
};

Fixture MakeFixture() {
  datagen::GeneratorConfig g;
  g.seed = 77;
  g.num_matched = 120;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = datagen::NameMode::kShared;
  g.min_degree = 2;
  g.schema_shift = 0.0;  // Shared schema names feed the FNN channels.
  g.kg2_schema_scale = 1.0;
  Fixture f;
  f.bench = datagen::BenchmarkGenerator().Generate(g);
  f.seeds = kg::AlignmentSeeds::Split(f.bench.ground_truth, 5,
                                      /*train=*/3, /*valid=*/1, /*test=*/6);
  return f;
}

TEST(HmanTest, FitsAndConcatenatesChannels) {
  Fixture f = MakeFixture();
  Hman::Config c;
  c.gcn.epochs = 30;
  c.epochs = 30;
  Hman m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(m.name(), "HMAN");
  // GCN out (default 64) + 2 channels of 32.
  EXPECT_EQ(m.embeddings1().dim(1), 64 + 2 * 32);
  EXPECT_EQ(m.embeddings1().dim(0), f.bench.kg1.num_entities());
  for (int64_t i = 0; i < m.embeddings1().size(); ++i) {
    ASSERT_TRUE(std::isfinite(m.embeddings1()[i]));
  }
}

TEST(HmanTest, MultiAspectBeatsStructureOnly) {
  // With a shared schema, the attribute/relation count channels carry
  // signal the topology-only GCN lacks (the paper's Table III/IV shows
  // HMAN above GCN-Align).
  Fixture f = MakeFixture();
  auto gcn_config = GcnConfig();
  gcn_config.epochs = 60;
  GcnAlign gcn(gcn_config);
  ASSERT_TRUE(gcn.Fit(f.input()).ok());

  Hman::Config c;
  c.gcn.epochs = 60;
  c.epochs = 60;
  Hman hman(c);
  ASSERT_TRUE(hman.Fit(f.input()).ok());

  const double gcn_h10 = gcn.Evaluate(f.seeds.test).hits_at_10;
  const double hman_h10 = hman.Evaluate(f.seeds.test).hits_at_10;
  EXPECT_GE(hman_h10, gcn_h10 * 0.9);  // At least competitive...
  // ...and the extra channels are not degenerate.
  EXPECT_GT(hman_h10, 10.0);
}

}  // namespace
}  // namespace sdea::baselines
