#include "kg/subgraph.h"

#include <gtest/gtest.h>

#include "datagen/generator.h"

namespace sdea::kg {
namespace {

// A star (hub + 5 spokes) plus a detached low-degree chain.
KnowledgeGraph StarAndChain() {
  KnowledgeGraph g;
  const EntityId hub = g.AddEntity("hub");
  const RelationId r = g.AddRelation("r");
  for (int i = 0; i < 5; ++i) {
    const EntityId spoke = g.AddEntity("spoke" + std::to_string(i));
    g.AddRelationalTriple(hub, r, spoke);
  }
  const EntityId c1 = g.AddEntity("chain1");
  const EntityId c2 = g.AddEntity("chain2");
  g.AddRelationalTriple(c1, r, c2);
  const AttributeId name = g.AddAttribute("name");
  g.AddAttributeTriple(hub, name, "The Hub");
  g.AddAttributeTriple(c1, name, "Chain One");
  return g;
}

TEST(CondenseTest, KeepsPopularEndpointsOnly) {
  KnowledgeGraph g = StarAndChain();
  CondenseOptions opt;
  opt.popularity_fraction = 0.75;  // Chain endpoints (degree 1) fall out.
  std::vector<EntityId> remap;
  const KnowledgeGraph condensed = CondenseByPopularity(g, opt, &remap);
  // The hub star survives, the chain is gone.
  EXPECT_TRUE(condensed.FindEntity("hub").ok());
  EXPECT_FALSE(condensed.FindEntity("chain1").ok());
  EXPECT_LT(condensed.num_entities(), g.num_entities());
  // Remap marks dropped entities invalid.
  EXPECT_EQ(remap[static_cast<size_t>(*g.FindEntity("chain1"))],
            kInvalidEntity);
  EXPECT_NE(remap[static_cast<size_t>(*g.FindEntity("hub"))],
            kInvalidEntity);
}

TEST(CondenseTest, AttributesFollowSurvivingEntities) {
  KnowledgeGraph g = StarAndChain();
  CondenseOptions opt;
  opt.popularity_fraction = 0.75;
  const KnowledgeGraph condensed = CondenseByPopularity(g, opt);
  const EntityId hub = *condensed.FindEntity("hub");
  const KgSnapshot snap = condensed.Snapshot();
  ASSERT_EQ(snap.AttributeRowsOf(hub).size(), 1u);
  // Chain1's attribute dropped with its entity.
  EXPECT_EQ(snap.num_attribute_triples(), 1);
}

TEST(CondenseTest, MinTriplesBackfills) {
  KnowledgeGraph g = StarAndChain();
  CondenseOptions opt;
  opt.popularity_fraction = 0.01;  // Almost nothing is "popular"...
  opt.min_triples = 3;             // ...but we demand 3 triples.
  const KnowledgeGraph condensed = CondenseByPopularity(g, opt);
  EXPECT_GE(condensed.Snapshot().num_relational_triples(), 3);
}

TEST(CondenseTest, FullFractionKeepsEverything) {
  KnowledgeGraph g = StarAndChain();
  CondenseOptions opt;
  opt.popularity_fraction = 1.0;
  const KnowledgeGraph condensed = CondenseByPopularity(g, opt);
  EXPECT_EQ(condensed.Snapshot().num_relational_triples(),
            g.Snapshot().num_relational_triples());
  EXPECT_EQ(condensed.num_entities(), g.num_entities());
}

TEST(CondenseTest, RaisesDensityOnGeneratedData) {
  // The purpose of DBP15K's condensed version: higher average degree.
  datagen::GeneratorConfig cfg;
  cfg.num_matched = 300;
  cfg.degree_zipf_s = 1.8;  // Sparse, long-tailed.
  const auto bench = datagen::BenchmarkGenerator().Generate(cfg);
  CondenseOptions opt;
  opt.popularity_fraction = 0.4;
  const KnowledgeGraph condensed =
      CondenseByPopularity(bench.kg1, opt);
  auto mean_degree = [](const KnowledgeGraph& g) {
    return 2.0 * static_cast<double>(g.Snapshot().num_relational_triples()) /
           static_cast<double>(g.num_entities());
  };
  EXPECT_GT(mean_degree(condensed), mean_degree(bench.kg1));
}

TEST(DegreeHistogramTest, CountsAndClamps) {
  KnowledgeGraph g = StarAndChain();
  const auto hist = DegreeHistogram(g, 3);
  // Degrees: hub=5 (clamped to 3), 5 spokes=1, chain1=1, chain2=1.
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[0], 0);
  EXPECT_EQ(hist[1], 7);
  EXPECT_EQ(hist[2], 0);
  EXPECT_EQ(hist[3], 1);
}

}  // namespace
}  // namespace sdea::kg
