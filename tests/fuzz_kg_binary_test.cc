// Fuzz + fault-injection regression suite for the SDEAKGB2 decoder:
// truncation at every offset, thousands of seeded mutations, the crafted
// corrupt counts that used to spin ~4B failed-read iterations, evil chunk
// headers (zero chunk size, unknown encodings, lying dictionaries), the
// duplicate-name blobs that used to abort inside AddRelationalTriple's
// SDEA_CHECK, and the atomic-save guarantee for kg::SaveBinary.
#include "kg/binary_io.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "base/fileio.h"
#include "base/wire.h"
#include "datagen/generator.h"
#include "testing/faults.h"
#include "testing/fuzz.h"

namespace sdea::kg {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
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
  std::string blob;
  wire::Writer w(&blob);
  w.Bytes("SDEAKGB2");
  w.U32(2);  // entities
  w.Str32("a");
  w.Str32("b");
  w.U32(2);  // relations (duplicates!)
  w.Str32("r");
  w.Str32("r");
  w.U32(0);     // attributes
  w.U32(1);     // relational rows
  w.U32(4096);  // relational chunk size
  w.U32(0);     // head column
  w.U32(1);     // relation column: id 1, declared, never interned
  w.U32(1);     // tail column
  w.U32(0);     // attribute rows
  w.U32(2048);  // attribute chunk size
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// Minimal valid v2 prologue: 1 entity "a", 0 relations, 1 attribute "p",
// empty relational section. Callers append the attribute section.
std::string V2Prologue() {
  std::string blob;
  wire::Writer w(&blob);
  w.Bytes("SDEAKGB2");
  w.U32(1);  // entities
  w.Str32("a");
  w.U32(0);  // relations
  w.U32(1);  // attributes
  w.Str32("p");
  w.U32(0);     // relational rows
  w.U32(4096);  // relational chunk size
  return blob;
}

TEST(KgBinaryFuzzTest, V2ZeroChunkSizeRejectedNotLooped) {
  // rows > 0 with chunk size 0 would loop forever advancing base by 0.
  std::string blob;
  wire::Writer w(&blob);
  w.Bytes("SDEAKGB2");
  w.U32(1);
  w.Str32("a");
  w.U32(1);
  w.Str32("r");
  w.U32(0);  // attributes
  w.U32(8);  // relational rows
  w.U32(0);  // chunk size: evil
  for (int i = 0; i < 24; ++i) w.U32(0);
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, V2UnknownChunkEncodingRejected) {
  std::string blob = V2Prologue();
  wire::Writer w(&blob);
  w.U32(1);     // attribute rows
  w.U32(2048);  // chunk size
  w.U32(0);     // entity column
  w.U32(0);     // attribute column
  w.U8(7);      // encoding byte: neither plain nor dict
  w.Str32("x");
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, V2DictLargerThanChunkRejected) {
  std::string blob = V2Prologue();
  wire::Writer w(&blob);
  w.U32(1);     // attribute rows
  w.U32(2048);  // chunk size
  w.U32(0);     // entity column
  w.U32(0);     // attribute column
  w.U8(1);      // dict encoding
  w.U32(2);     // dict entries: more than the chunk's 1 row
  w.Str32("x");
  w.Str32("y");
  w.U32(0);  // code
  auto decoded = DecodeBinary(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KgBinaryFuzzTest, V2DictCodePastDictionaryRejected) {
  std::string blob = V2Prologue();
  wire::Writer w(&blob);
  w.U32(2);     // attribute rows
  w.U32(2048);  // chunk size
  w.U32(0);     // entity column x2
  w.U32(0);
  w.U32(0);     // attribute column x2
  w.U32(0);
  w.U8(1);   // dict encoding
  w.U32(1);  // one dict entry
  w.Str32("x");
  w.U32(0);  // code 0: fine
  w.U32(5);  // code 5: past the dictionary
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
