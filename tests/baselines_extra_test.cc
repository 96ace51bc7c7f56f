// TransEdge-lite and KECG-lite — the remaining Table II technique rows.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/kecg.h"
#include "baselines/transedge.h"
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
  g.seed = 67;
  g.num_matched = 120;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = datagen::NameMode::kShared;
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

TEST(TransEdgeTest, FitsAndEvaluates) {
  Fixture f = MakeFixture();
  TransEdge::Config c;
  c.dim = 16;
  c.epochs = 8;
  TransEdge m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(m.name(), "TransEdge");
  ExpectFiniteEmbeddings(m);
  EXPECT_EQ(m.embeddings1().dim(0), f.bench.kg1.num_entities());
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_EQ(metrics.num_queries,
            static_cast<int64_t>(f.seeds.test.size()));
}

TEST(TransEdgeTest, SeedSharedSlotsIdentical) {
  Fixture f = MakeFixture();
  TransEdge::Config c;
  c.dim = 12;
  c.epochs = 3;
  TransEdge m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  const auto& [a, b] = f.seeds.train.front();
  EXPECT_LT(tmath::SquaredL2Distance(m.embeddings1().Row(a),
                                     m.embeddings2().Row(b)),
            1e-10f);
}

TEST(KecgTest, FitsAndEvaluates) {
  Fixture f = MakeFixture();
  Kecg::Config c;
  c.dim = 16;
  c.rounds = 2;
  c.transe.epochs = 10;
  c.gnn_steps_per_round = 10;
  Kecg m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(m.name(), "KECG");
  ExpectFiniteEmbeddings(m);
  const auto metrics = m.Evaluate(f.seeds.test);
  EXPECT_EQ(metrics.num_queries,
            static_cast<int64_t>(f.seeds.test.size()));
  // The cross-graph loss must produce above-chance ranking
  // (chance H@10 ~ 10/126 = 8%).
  EXPECT_GT(metrics.hits_at_10, 10.0);
}

}  // namespace
}  // namespace sdea::baselines
