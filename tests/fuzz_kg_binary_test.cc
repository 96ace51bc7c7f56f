// Fuzz + fault-injection regression suite for the KG binary decoders
// (SDEAKGB2 chunked columnar + legacy SDEAKGB1): truncation at every
// offset, thousands of seeded mutations per format, the crafted corrupt
// counts that used to spin ~4B failed-read iterations, evil v2 chunk
// headers (zero chunk size, unknown encodings, lying dictionaries), the
// duplicate-name blobs that used to abort inside AddRelationalTriple's
// SDEA_CHECK, and the atomic-save guarantee for kg::SaveBinary.
#include "kg/binary_io.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "base/fileio.h"
#include "datagen/generator.h"
#include "testing/faults.h"
#include "testing/fuzz.h"

namespace sdea::kg {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

KnowledgeGraph SmallGraph() {
  datagen::GeneratorConfig cfg;
  cfg.num_matched = 40;
  auto bench = datagen::BenchmarkGenerator().Generate(cfg);
  return std::move(bench.kg1);
}

sdea::testing::DecodeFn Decoder() {
  return [](const std::string& blob) { return DecodeBinary(blob).status(); };
}

TEST(KgBinaryFuzzTest, ValidBlobDecodes) {
  const KnowledgeGraph g = SmallGraph();
  const std::string blob = EncodeBinary(g);
  EXPECT_EQ(blob.substr(0, 8), "SDEAKGB2");
  auto decoded = DecodeBinary(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_entities(), g.num_entities());
  EXPECT_EQ(decoded->Snapshot().num_relational_triples(),
            g.Snapshot().num_relational_triples());
  // The decoded graph re-encodes to the identical bytes: the chunked
  // format round-trips exactly.
  EXPECT_EQ(EncodeBinary(*decoded), blob);
}

TEST(KgBinaryFuzzTest, LegacyV1BlobStillLoads) {
  const KnowledgeGraph g = SmallGraph();
  const std::string v1 = EncodeBinaryV1(g);
  EXPECT_EQ(v1.substr(0, 8), "SDEAKGB1");
  auto decoded = DecodeBinary(v1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_entities(), g.num_entities());
  const KgSnapshot got = decoded->Snapshot();
  const KgSnapshot want = g.Snapshot();
  ASSERT_EQ(got.num_relational_triples(), want.num_relational_triples());
  ASSERT_EQ(got.num_attribute_triples(), want.num_attribute_triples());
  for (int64_t i = 0; i < want.num_attribute_triples(); ++i) {
    EXPECT_EQ(got.ValueAt(i), want.ValueAt(i));
  }
  // Loading legacy bytes and re-saving produces the current format with
  // the same content.
  EXPECT_EQ(EncodeBinary(*decoded), EncodeBinary(g));
}

TEST(KgBinaryFuzzTest, TruncationAtEveryOffset) {
  const std::string blob = EncodeBinary(SmallGraph());
  sdea::testing::FuzzStats stats;
  const Status verdict =
      sdea::testing::CheckTruncationRobustness(blob, Decoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, static_cast<int64_t>(blob.size()));
  // Every strict prefix must be rejected — none may "load as garbage".
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(KgBinaryFuzzTest, TruncationAtEveryOffsetV1) {
  const std::string blob = EncodeBinaryV1(SmallGraph());
  sdea::testing::FuzzStats stats;
  const Status verdict =
      sdea::testing::CheckTruncationRobustness(blob, Decoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(KgBinaryFuzzTest, SeededMutations) {
  const std::string blob = EncodeBinary(SmallGraph());
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      blob, Decoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, options.iterations);
  // The corpus must actually exercise the reject path.
  EXPECT_GT(stats.rejected, 0);
}

TEST(KgBinaryFuzzTest, SeededMutationsV1) {
  const std::string blob = EncodeBinaryV1(SmallGraph());
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  options.seed = 0x5dea2;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      blob, Decoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_GT(stats.rejected, 0);
}

TEST(KgBinaryFuzzTest, HugeEntityCountRejectsInConstantTime) {
  std::string blob = EncodeBinary(SmallGraph());
  // The entity count lives right after the 8-byte magic.
  const uint32_t evil = 0xFFFFFFFFu;
  std::memcpy(blob.data() + 8, &evil, 4);
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, DuplicateRelationNameRejectedNotAborted) {
  // Hand-built blob: 2 entities, a relation table declaring 2 entries that
  // intern to the same id, and a triple referencing relation 1 — which
  // exists per the declared count but not in the interned table. The old
  // decoder ran this straight into AddRelationalTriple's SDEA_CHECK.
  std::string blob = "SDEAKGB1";
  AppendU32(&blob, 2);  // entities
  AppendString(&blob, "a");
  AppendString(&blob, "b");
  AppendU32(&blob, 2);  // relations (duplicates!)
  AppendString(&blob, "r");
  AppendString(&blob, "r");
  AppendU32(&blob, 0);  // attributes
  AppendU32(&blob, 1);  // relational triples
  AppendU32(&blob, 0);  // head
  AppendU32(&blob, 1);  // relation id 1: declared, never interned
  AppendU32(&blob, 1);  // tail
  AppendU32(&blob, 0);  // attribute triples
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// Minimal valid v2 prologue: 1 entity "a", 0 relations, 1 attribute "p",
// empty relational section. Callers append the attribute section.
std::string V2Prologue() {
  std::string blob = "SDEAKGB2";
  AppendU32(&blob, 1);  // entities
  AppendString(&blob, "a");
  AppendU32(&blob, 0);  // relations
  AppendU32(&blob, 1);  // attributes
  AppendString(&blob, "p");
  AppendU32(&blob, 0);     // relational rows
  AppendU32(&blob, 4096);  // relational chunk size
  return blob;
}

TEST(KgBinaryFuzzTest, V2ZeroChunkSizeRejectedNotLooped) {
  // rows > 0 with chunk size 0 would loop forever advancing base by 0.
  std::string blob = "SDEAKGB2";
  AppendU32(&blob, 1);
  AppendString(&blob, "a");
  AppendU32(&blob, 1);
  AppendString(&blob, "r");
  AppendU32(&blob, 0);  // attributes
  AppendU32(&blob, 8);  // relational rows
  AppendU32(&blob, 0);  // chunk size: evil
  for (int i = 0; i < 24; ++i) AppendU32(&blob, 0);
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, V2UnknownChunkEncodingRejected) {
  std::string blob = V2Prologue();
  AppendU32(&blob, 1);     // attribute rows
  AppendU32(&blob, 2048);  // chunk size
  AppendU32(&blob, 0);     // entity column
  AppendU32(&blob, 0);     // attribute column
  blob.push_back(7);       // encoding byte: neither plain nor dict
  AppendString(&blob, "x");
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, V2DictLargerThanChunkRejected) {
  std::string blob = V2Prologue();
  AppendU32(&blob, 1);     // attribute rows
  AppendU32(&blob, 2048);  // chunk size
  AppendU32(&blob, 0);     // entity column
  AppendU32(&blob, 0);     // attribute column
  blob.push_back(1);       // dict encoding
  AppendU32(&blob, 2);     // dict entries: more than the chunk's 1 row
  AppendString(&blob, "x");
  AppendString(&blob, "y");
  AppendU32(&blob, 0);  // code
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, V2DictCodePastDictionaryRejected) {
  std::string blob = V2Prologue();
  AppendU32(&blob, 2);     // attribute rows
  AppendU32(&blob, 2048);  // chunk size
  AppendU32(&blob, 0);     // entity column x2
  AppendU32(&blob, 0);
  AppendU32(&blob, 0);  // attribute column x2
  AppendU32(&blob, 0);
  blob.push_back(1);    // dict encoding
  AppendU32(&blob, 1);  // one dict entry
  AppendString(&blob, "x");
  AppendU32(&blob, 0);  // code 0: fine
  AppendU32(&blob, 5);  // code 5: past the dictionary
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, V2HugeRowCountsRejectInConstantTime) {
  for (const size_t patch_at : {8u, 0u}) {
    std::string blob = EncodeBinary(SmallGraph());
    const uint32_t evil = 0xFFFFFFFFu;
    // Patch the entity count (offset 8) and, separately, leave the magic
    // but splat the relational row count region by brute force: every u32
    // in the blob gets tried by the mutation corpus anyway, so here just
    // check the entity-count case and a mid-blob splat.
    const size_t off = patch_at == 0 ? blob.size() / 2 : patch_at;
    std::memcpy(blob.data() + off, &evil, 4);
    auto decoded = DecodeBinary(blob);
    // Either rejected or (for the mid-blob splat) decoded if the bytes
    // happened to be value payload — never a hang or crash.
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(KgBinaryFuzzTest, SaveBinaryIsAtomicUnderInjectedFaults) {
  const KnowledgeGraph g = SmallGraph();
  const std::string path = TempPath("sdea_kg_atomic_fuzz.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());

  KnowledgeGraph replacement;
  replacement.AddEntity("only");

  // Break the save at each stage (hard write failure, 10-byte short
  // write, failed rename): the file on disk must still load as the
  // original complete graph every time.
  for (const auto& plan :
       {sdea::testing::FaultPlan{.op = FaultInjector::FileOp::kWrite},
        sdea::testing::FaultPlan{.op = FaultInjector::FileOp::kWrite,
                                 .short_write_bytes = 10},
        sdea::testing::FaultPlan{.op = FaultInjector::FileOp::kRename}}) {
    sdea::testing::CountdownFaultInjector injector{plan};
    {
      ScopedFaultInjector scope(&injector);
      EXPECT_FALSE(SaveBinary(replacement, path).ok());
    }
    EXPECT_EQ(injector.faults_injected(), 1);
    auto loaded = LoadBinary(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_entities(), g.num_entities());
    EXPECT_EQ(loaded->Snapshot().num_relational_triples(),
              g.Snapshot().num_relational_triples());
  }
}

}  // namespace
}  // namespace sdea::kg
