// The path-based baseline group (RSN4EA / IPTransE) and the name-
// initialized GCN (RDGCN-lite).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/iptranse.h"
#include "baselines/rsn4ea.h"
#include "baselines/gcn_align.h"
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

Fixture MakeFixture(datagen::NameMode mode = datagen::NameMode::kShared) {
  datagen::GeneratorConfig g;
  g.seed = 66;
  g.num_matched = 120;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = mode;
  g.min_degree = 2;
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

TEST(Rsn4EaTest, FitsAndEvaluates) {
  Fixture f = MakeFixture();
  Rsn4Ea::Config c;
  c.dim = 16;
  c.epochs = 3;
  c.walks_per_entity = 2;
  Rsn4Ea m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  ExpectFiniteEmbeddings(m);
  EXPECT_EQ(m.name(), "RSN4EA");
  EXPECT_EQ(m.embeddings1().dim(0), f.bench.kg1.num_entities());
  EXPECT_EQ(m.embeddings1().dim(1), 16);
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_EQ(metrics.num_queries,
            static_cast<int64_t>(f.seeds.test.size()));
}

TEST(Rsn4EaTest, SeedSharedSlotsIdentical) {
  // Seed-aligned entities share an embedding slot, so their vectors match
  // exactly after training.
  Fixture f = MakeFixture();
  Rsn4Ea::Config c;
  c.dim = 12;
  c.epochs = 2;
  c.walks_per_entity = 1;
  Rsn4Ea m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  const auto& [a, b] = f.seeds.train.front();
  EXPECT_LT(tmath::SquaredL2Distance(m.embeddings1().Row(a),
                                     m.embeddings2().Row(b)),
            1e-10f);
}

TEST(IpTransETest, FitsAndEvaluates) {
  Fixture f = MakeFixture();
  IpTransE::Config c;
  c.transe.dim = 16;
  c.iterations = 2;
  c.epochs_per_iteration = 10;
  c.path_samples_per_epoch = 300;
  IpTransE m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  ExpectFiniteEmbeddings(m);
  EXPECT_EQ(m.name(), "IPTransE");
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_EQ(metrics.num_queries,
            static_cast<int64_t>(f.seeds.test.size()));
}

TEST(RdgcnLiteTest, NameInitBeatsRandomInitOnSharedNames) {
  Fixture f = MakeFixture(datagen::NameMode::kShared);
  auto base = GcnConfig();
  base.epochs = 40;
  GcnAlign random_init(base);
  ASSERT_TRUE(random_init.Fit(f.input()).ok());

  auto cfg = RdgcnLiteConfig();
  cfg.epochs = 40;
  GcnAlign name_init(cfg);
  ASSERT_TRUE(name_init.Fit(f.input()).ok());
  EXPECT_EQ(name_init.name(), "RDGCN (lite)");

  const double random_h1 = random_init.Evaluate(f.seeds.test).hits_at_1;
  const double name_h1 = name_init.Evaluate(f.seeds.test).hits_at_1;
  // Name features carry direct alignment signal on shared-name data
  // (Table III/IV: RDGCN/HGCN far above GCN).
  EXPECT_GT(name_h1, random_h1);
}

}  // namespace
}  // namespace sdea::baselines
