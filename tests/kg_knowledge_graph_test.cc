#include "kg/knowledge_graph.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

namespace sdea::kg {
namespace {

KnowledgeGraph SampleGraph() {
  KnowledgeGraph g;
  const EntityId ronaldo = g.AddEntity("C._Ronaldo");
  const EntityId madrid = g.AddEntity("Real_Madrid_C.F.");
  const EntityId portugal = g.AddEntity("Portugal");
  const RelationId plays_for = g.AddRelation("playsFor");
  const RelationId nationality = g.AddRelation("nationality");
  g.AddRelationalTriple(ronaldo, plays_for, madrid);
  g.AddRelationalTriple(ronaldo, nationality, portugal);
  const AttributeId name = g.AddAttribute("name");
  const AttributeId comment = g.AddAttribute("comment");
  g.AddAttributeTriple(ronaldo, name, "Cristiano Ronaldo");
  g.AddAttributeTriple(ronaldo, comment,
                       "a Portuguese footballer playing in Madrid");
  g.AddAttributeTriple(madrid, name, "Real Madrid");
  return g;
}

TEST(KnowledgeGraphTest, InterningIsIdempotent) {
  KnowledgeGraph g;
  EXPECT_EQ(g.AddEntity("a"), g.AddEntity("a"));
  EXPECT_EQ(g.AddRelation("r"), g.AddRelation("r"));
  EXPECT_EQ(g.AddAttribute("x"), g.AddAttribute("x"));
  EXPECT_EQ(g.num_entities(), 1);
}

TEST(KnowledgeGraphTest, LookupByName) {
  KnowledgeGraph g = SampleGraph();
  auto r = g.FindEntity("Portugal");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(g.entity_name(*r), "Portugal");
  EXPECT_FALSE(g.FindEntity("Messi").ok());
  EXPECT_TRUE(g.FindRelation("playsFor").ok());
  EXPECT_FALSE(g.FindRelation("none").ok());
  EXPECT_TRUE(g.FindAttribute("comment").ok());
  EXPECT_FALSE(g.FindAttribute("none").ok());
}

TEST(KnowledgeGraphTest, NeighborsBothDirections) {
  KnowledgeGraph g = SampleGraph();
  const EntityId ronaldo = *g.FindEntity("C._Ronaldo");
  const EntityId madrid = *g.FindEntity("Real_Madrid_C.F.");
  const KgSnapshot snap = g.Snapshot();
  EXPECT_EQ(snap.DegreeOf(ronaldo), 2);
  EXPECT_EQ(snap.DegreeOf(madrid), 1);
  const std::vector<NeighborEdge> edges = snap.NeighborsOf(madrid);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].neighbor, ronaldo);
  EXPECT_FALSE(edges[0].outgoing);
}

TEST(KnowledgeGraphTest, AttributeTriplesOfEntity) {
  KnowledgeGraph g = SampleGraph();
  const EntityId ronaldo = *g.FindEntity("C._Ronaldo");
  const KgSnapshot snap = g.Snapshot();
  const std::vector<int64_t> idx = snap.AttributeRowsOf(ronaldo);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(snap.ValueAt(idx[0]), "Cristiano Ronaldo");
}

TEST(KnowledgeGraphTest, Statistics) {
  KnowledgeGraph g = SampleGraph();
  const KgStatistics s = g.ComputeStatistics();
  EXPECT_EQ(s.num_entities, 3);
  EXPECT_EQ(s.num_relations, 2);
  EXPECT_EQ(s.num_attributes, 2);
  EXPECT_EQ(s.num_relational_triples, 2);
  EXPECT_EQ(s.num_attribute_triples, 3);
  // All 3 entities have degree in [1,3].
  EXPECT_DOUBLE_EQ(s.degree_le3, 1.0);
  EXPECT_DOUBLE_EQ(s.degree_le10, 1.0);
}

TEST(KnowledgeGraphTest, StatisticsExcludeIsolatedEntities) {
  KnowledgeGraph g;
  g.AddEntity("isolated");
  const KgStatistics s = g.ComputeStatistics();
  EXPECT_DOUBLE_EQ(s.degree_le3, 0.0);
}

TEST(KnowledgeGraphTest, CloneIsDeep) {
  KnowledgeGraph g = SampleGraph();
  KnowledgeGraph c = g.Clone();
  c.AddEntity("new one");
  EXPECT_EQ(g.num_entities(), 3);
  EXPECT_EQ(c.num_entities(), 4);
}

TEST(KnowledgeGraphTest, TsvRoundTrip) {
  const char* dir = std::getenv("TMPDIR");
  const std::string prefix =
      std::string(dir != nullptr ? dir : "/tmp") + "/sdea_kg_test";
  KnowledgeGraph g = SampleGraph();
  ASSERT_TRUE(g.SaveTsv(prefix).ok());
  auto r = KnowledgeGraph::LoadTsv(prefix);
  ASSERT_TRUE(r.ok());
  const KnowledgeGraph& g2 = *r;
  EXPECT_EQ(g2.num_entities(), g.num_entities());
  EXPECT_EQ(g2.num_relations(), g.num_relations());
  const KgSnapshot snap = g.Snapshot();
  const KgSnapshot snap2 = g2.Snapshot();
  EXPECT_EQ(snap2.num_relational_triples(), snap.num_relational_triples());
  EXPECT_EQ(snap2.num_attribute_triples(), snap.num_attribute_triples());
  const EntityId ronaldo = *g2.FindEntity("C._Ronaldo");
  EXPECT_EQ(snap2.DegreeOf(ronaldo), 2);
}

TEST(KnowledgeGraphTest, LoadMissingFileFails) {
  auto r = KnowledgeGraph::LoadTsv("/tmp/sdea_missing_prefix_xyz");
  EXPECT_FALSE(r.ok());
}

TEST(KnowledgeGraphTest, TsvRoundTripsValuesWithTabsAndNewlines) {
  // Free-text attribute values with embedded field/record separators used
  // to corrupt the TSV row structure (a tab split the value into extra
  // fields that re-joined with spaces; a newline split the row in two).
  const char* dir = std::getenv("TMPDIR");
  const std::string prefix =
      std::string(dir != nullptr ? dir : "/tmp") + "/sdea_kg_escape_test";
  KnowledgeGraph g;
  const EntityId e = g.AddEntity("e");
  const EntityId f = g.AddEntity("f");
  const RelationId r = g.AddRelation("r");
  g.AddRelationalTriple(e, r, f);
  const AttributeId a = g.AddAttribute("desc");
  const std::vector<std::string> values = {
      "plain",
      "tab\tinside",
      "newline\ninside",
      "crlf\r\nboth",
      "backslash \\t literal",
      "\ttabs\tat\tends\t",
      "trailing backslash \\",
  };
  for (const std::string& v : values) g.AddAttributeTriple(e, a, v);

  ASSERT_TRUE(g.SaveTsv(prefix).ok());
  auto loaded = KnowledgeGraph::LoadTsv(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const KgSnapshot snap = loaded->Snapshot();
  ASSERT_EQ(snap.num_attribute_triples(),
            static_cast<int64_t>(values.size()));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(snap.ValueAt(static_cast<int64_t>(i)), values[i])
        << "value " << i;
  }
}

TEST(KnowledgeGraphTest, SaveTsvRejectsUnescapableNames) {
  // Names are key fields in both TSV files; a tab or newline inside one
  // cannot be written compatibly, so SaveTsv must refuse — not corrupt.
  const char* dir = std::getenv("TMPDIR");
  const std::string prefix =
      std::string(dir != nullptr ? dir : "/tmp") + "/sdea_kg_badname_test";
  for (const char* bad : {"tab\tname", "line\nname", "cr\rname"}) {
    KnowledgeGraph g;
    g.AddEntity(bad);
    const Status s = g.SaveTsv(prefix);
    ASSERT_FALSE(s.ok()) << bad;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  KnowledgeGraph g;
  g.AddEntity("e");
  g.AddRelation("bad\trel");
  EXPECT_EQ(g.SaveTsv(prefix).code(), StatusCode::kInvalidArgument);
  KnowledgeGraph g2;
  g2.AddEntity("e");
  g2.AddAttribute("bad\nattr");
  EXPECT_EQ(g2.SaveTsv(prefix).code(), StatusCode::kInvalidArgument);
}

TEST(KnowledgeGraphTest, OutOfRangeIdsReturnEmptyNotUb) {
  const KgSnapshot snap = SampleGraph().Snapshot();
  for (const EntityId bad : {EntityId{-1}, EntityId{3}, EntityId{9999}}) {
    EXPECT_TRUE(snap.NeighborsOf(bad).empty());
    EXPECT_TRUE(snap.AttributeRowsOf(bad).empty());
    EXPECT_EQ(snap.DegreeOf(bad), 0);
  }
}

TEST(AlignmentSeedsTest, SplitRatios) {
  std::vector<std::pair<EntityId, EntityId>> pairs;
  for (int i = 0; i < 100; ++i) pairs.emplace_back(i, i);
  const AlignmentSeeds s = AlignmentSeeds::Split(pairs, 3);
  EXPECT_EQ(s.train.size(), 20u);
  EXPECT_EQ(s.valid.size(), 10u);
  EXPECT_EQ(s.test.size(), 70u);
  EXPECT_EQ(s.total(), 100);
}

TEST(AlignmentSeedsTest, SplitIsPartition) {
  std::vector<std::pair<EntityId, EntityId>> pairs;
  for (int i = 0; i < 50; ++i) pairs.emplace_back(i, 100 + i);
  const AlignmentSeeds s = AlignmentSeeds::Split(pairs, 5);
  std::set<EntityId> seen;
  for (const auto* split : {&s.train, &s.valid, &s.test}) {
    for (const auto& [a, b] : *split) {
      EXPECT_TRUE(seen.insert(a).second);  // No duplicates across splits.
      EXPECT_EQ(b, a + 100);               // Pairing preserved.
    }
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(AlignmentSeedsTest, DeterministicForSeed) {
  std::vector<std::pair<EntityId, EntityId>> pairs;
  for (int i = 0; i < 30; ++i) pairs.emplace_back(i, i);
  const AlignmentSeeds a = AlignmentSeeds::Split(pairs, 7);
  const AlignmentSeeds b = AlignmentSeeds::Split(pairs, 7);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
}

}  // namespace
}  // namespace sdea::kg
