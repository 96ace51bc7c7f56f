#include "kg/binary_io.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "base/fileio.h"
#include "datagen/generator.h"

namespace sdea::kg {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(BinaryIoTest, RoundTripGeneratedGraph) {
  datagen::GeneratorConfig cfg;
  cfg.num_matched = 200;
  const auto bench = datagen::BenchmarkGenerator().Generate(cfg);
  const std::string path = TempPath("sdea_kg_roundtrip.bin");
  ASSERT_TRUE(SaveBinary(bench.kg1, path).ok());

  auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_entities(), bench.kg1.num_entities());
  EXPECT_EQ(loaded->num_relations(), bench.kg1.num_relations());
  EXPECT_EQ(loaded->num_attributes(), bench.kg1.num_attributes());
  const KgSnapshot got = loaded->Snapshot();
  const KgSnapshot want = bench.kg1.Snapshot();
  ASSERT_EQ(got.num_relational_triples(), want.num_relational_triples());
  ASSERT_EQ(got.num_attribute_triples(), want.num_attribute_triples());
  // Spot-check exact content (names and triples preserve order).
  for (EntityId e = 0; e < loaded->num_entities(); e += 37) {
    EXPECT_EQ(loaded->entity_name(e), bench.kg1.entity_name(e));
  }
  EXPECT_EQ(got.RelationalAt(0), want.RelationalAt(0));
  const int64_t last = want.num_attribute_triples() - 1;
  EXPECT_EQ(got.AttributeIdsAt(last), want.AttributeIdsAt(last));
  EXPECT_EQ(got.ValueAt(last), want.ValueAt(last));
}

TEST(BinaryIoTest, RejectsGarbage) {
  const std::string path = TempPath("sdea_kg_garbage.bin");
  ASSERT_TRUE(WriteStringToFile(path, "definitely not a kg").ok());
  EXPECT_FALSE(LoadBinary(path).ok());
}

TEST(BinaryIoTest, RejectsTruncation) {
  KnowledgeGraph g;
  const EntityId a = g.AddEntity("a");
  const EntityId b = g.AddEntity("b");
  const RelationId r = g.AddRelation("r");
  g.AddRelationalTriple(a, r, b);
  const std::string path = TempPath("sdea_kg_trunc.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  // Chop off the tail and expect a clean error, not a crash.
  for (size_t cut : {contents->size() - 3, contents->size() / 2, size_t{9}}) {
    ASSERT_TRUE(
        WriteStringToFile(path, contents->substr(0, cut)).ok());
    EXPECT_FALSE(LoadBinary(path).ok()) << "cut=" << cut;
  }
}

TEST(BinaryIoTest, EmptyGraphRoundTrips) {
  KnowledgeGraph g;
  const std::string path = TempPath("sdea_kg_empty.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_entities(), 0);
  EXPECT_EQ(loaded->Snapshot().num_relational_triples(), 0);
}

TEST(BinaryIoTest, ValuesWithTabsAndNewlinesSurvive) {
  // The binary format, unlike TSV, is content-agnostic.
  KnowledgeGraph g;
  const EntityId e = g.AddEntity("e");
  const AttributeId a = g.AddAttribute("comment");
  const std::string nasty = "line1\nline2\tand\ttabs \"quotes\"";
  g.AddAttributeTriple(e, a, nasty);
  const std::string path = TempPath("sdea_kg_nasty.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Snapshot().ValueAt(0), nasty);
}

}  // namespace
}  // namespace sdea::kg
