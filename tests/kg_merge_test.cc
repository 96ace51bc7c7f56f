#include "kg/merge.h"

#include <gtest/gtest.h>

namespace sdea::kg {
namespace {

// KB1: ronaldo -playsFor-> madrid; KB2: cr7 -memberOf-> madrid2 plus an
// exclusive entity. Gold: ronaldo == cr7, madrid == madrid2.
struct Pair {
  KnowledgeGraph kg1;
  KnowledgeGraph kg2;
};

Pair MakePair() {
  Pair p;
  const EntityId ronaldo = p.kg1.AddEntity("C._Ronaldo");
  const EntityId madrid = p.kg1.AddEntity("Real_Madrid");
  const RelationId plays = p.kg1.AddRelation("playsFor");
  p.kg1.AddRelationalTriple(ronaldo, plays, madrid);
  const AttributeId name1 = p.kg1.AddAttribute("name");
  p.kg1.AddAttributeTriple(ronaldo, name1, "Cristiano Ronaldo");

  const EntityId cr7 = p.kg2.AddEntity("Cristiano_Ronaldo");
  const EntityId madrid2 = p.kg2.AddEntity("Real_Madrid_CF");
  const EntityId exclusive = p.kg2.AddEntity("Only_In_KB2");
  const RelationId member = p.kg2.AddRelation("memberOf");
  p.kg2.AddRelationalTriple(cr7, member, madrid2);
  p.kg2.AddRelationalTriple(exclusive, member, madrid2);
  const AttributeId born = p.kg2.AddAttribute("birthYear");
  p.kg2.AddAttributeTriple(cr7, born, "1985");
  return p;
}

TEST(MergeTest, FusesMatchedAndCarriesUnmatched) {
  Pair p = MakePair();
  // match[kg1 entity] = kg2 entity: ronaldo->cr7, madrid->madrid2.
  const std::vector<int64_t> match{0, 1};
  MergeReport report;
  auto merged = MergeKnowledgeBases(p.kg1, p.kg2, match, {}, &report);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(report.fused_entities, 2);
  EXPECT_EQ(report.carried_entities, 1);
  // 2 (kg1) + 1 carried = 3 entities, not 5.
  EXPECT_EQ(merged->num_entities(), 3);
  // Fused ronaldo has both name and birthYear.
  const KgSnapshot snap = merged->Snapshot();
  const EntityId ronaldo = *merged->FindEntity("C._Ronaldo");
  EXPECT_EQ(snap.AttributeRowsOf(ronaldo).size(), 2u);
  // Both relational facts survive (playsFor from KB1, memberOf from KB2).
  EXPECT_EQ(snap.DegreeOf(ronaldo), 2);
  // Exclusive entity carried with degree 1.
  const EntityId excl = *merged->FindEntity("Only_In_KB2");
  EXPECT_EQ(snap.DegreeOf(excl), 1);
}

TEST(MergeTest, SchemaPrefixOnKg2OnlyNames) {
  Pair p = MakePair();
  auto merged = MergeKnowledgeBases(p.kg1, p.kg2, {0, 1});
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->FindRelation("kg2:memberOf").ok());
  EXPECT_TRUE(merged->FindAttribute("kg2:birthYear").ok());
  // KG1 schema untouched.
  EXPECT_TRUE(merged->FindRelation("playsFor").ok());
}

TEST(MergeTest, SharedSchemaNamesReuse) {
  KnowledgeGraph a, b;
  const EntityId x = a.AddEntity("x");
  const EntityId y = b.AddEntity("y");
  const AttributeId name_a = a.AddAttribute("name");
  const AttributeId name_b = b.AddAttribute("name");
  a.AddAttributeTriple(x, name_a, "X");
  b.AddAttributeTriple(y, name_b, "Y");
  auto merged = MergeKnowledgeBases(a, b, {-1});
  ASSERT_TRUE(merged.ok());
  // Same attribute name merges; no kg2: prefix created.
  EXPECT_FALSE(merged->FindAttribute("kg2:name").ok());
  EXPECT_EQ(merged->num_attributes(), 1);
}

TEST(MergeTest, DeduplicatesIdenticalFacts) {
  KnowledgeGraph a, b;
  const EntityId a1 = a.AddEntity("e1");
  const EntityId a2 = a.AddEntity("e2");
  const RelationId r = a.AddRelation("rel");
  a.AddRelationalTriple(a1, r, a2);
  const EntityId b1 = b.AddEntity("e1b");
  const EntityId b2 = b.AddEntity("e2b");
  const RelationId rb = b.AddRelation("rel");  // Same relation name.
  b.AddRelationalTriple(b1, rb, b2);
  MergeReport report;
  auto merged =
      MergeKnowledgeBases(a, b, {0, 1}, MergeOptions{}, &report);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(report.duplicate_relational, 1);
  EXPECT_EQ(merged->Snapshot().num_relational_triples(), 1);
}

TEST(MergeTest, NameCollisionOnCarriedEntity) {
  KnowledgeGraph a, b;
  a.AddEntity("Paris");
  b.AddEntity("Paris");  // Same name but NOT matched.
  auto merged = MergeKnowledgeBases(a, b, {-1});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_entities(), 2);
  EXPECT_TRUE(merged->FindEntity("kg2:Paris").ok());
}

TEST(MergeTest, RejectsBadMatchVectors) {
  Pair p = MakePair();
  EXPECT_FALSE(MergeKnowledgeBases(p.kg1, p.kg2, {0}).ok());  // Wrong size.
  EXPECT_FALSE(
      MergeKnowledgeBases(p.kg1, p.kg2, {0, 99}).ok());  // Out of range.
  EXPECT_FALSE(
      MergeKnowledgeBases(p.kg1, p.kg2, {0, 0}).ok());  // Duplicate target.
}

TEST(MergeTest, EmptyMatchIsDisjointUnion) {
  Pair p = MakePair();
  MergeReport report;
  auto merged = MergeKnowledgeBases(p.kg1, p.kg2, {-1, -1},
                                    MergeOptions{}, &report);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(report.fused_entities, 0);
  EXPECT_EQ(merged->num_entities(),
            p.kg1.num_entities() + p.kg2.num_entities());
}

}  // namespace
}  // namespace sdea::kg
