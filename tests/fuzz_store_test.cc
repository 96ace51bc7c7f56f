// Fuzz regression suite for the SDEASTOR1 decoders: the codebook blob,
// the manifest, and shard images all obey the DESIGN.md §8 contract —
// arbitrary bytes either decode ok() or reject with InvalidArgument, never
// crash, hang, or allocate unboundedly. Run under ASan+UBSan in CI via the
// `fuzz` ctest label.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "store/format.h"
#include "store/quantizer.h"
#include "tensor/tensor.h"
#include "testing/fuzz.h"

namespace sdea::store {
namespace {

Tensor RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Tensor t({n, d});
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  tmath::L2NormalizeRowsInPlace(&t);
  return t;
}

std::string Int8CodebookBlob() {
  return Codebook::TrainInt8(RandomRows(60, 16, 1)).Encode();
}

std::string ManifestBlob() {
  Manifest manifest;
  manifest.dim = 16;
  manifest.total_rows = 60;
  manifest.store_full_precision = true;
  manifest.codebook = Codebook::TrainInt8(RandomRows(60, 16, 3));
  manifest.shards = {ShardInfo{40, 12288}, ShardInfo{20, 8192}};
  return EncodeManifest(manifest);
}

std::string ShardBlob() {
  const int64_t n = 11, d = 16;
  const Tensor rows = RandomRows(n, d, 4);
  const Codebook cb = Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) names.push_back("e" + std::to_string(i));
  return EncodeShard(cb, codes.data(), rows.data(), n, names, 0);
}

sdea::testing::DecodeFn CodebookDecoder() {
  return [](const std::string& blob) {
    return Codebook::Decode(blob).status();
  };
}

sdea::testing::DecodeFn ManifestDecoder() {
  return [](const std::string& blob) {
    return DecodeManifest(blob).status();
  };
}

sdea::testing::DecodeFn ShardDecoder() {
  return [](const std::string& blob) {
    return DecodeShardHeader(blob).status();
  };
}

TEST(StoreFuzzTest, ValidBlobsDecode) {
  EXPECT_TRUE(Codebook::Decode(Int8CodebookBlob()).ok());
  EXPECT_TRUE(DecodeManifest(ManifestBlob()).ok());
  EXPECT_TRUE(DecodeShardHeader(ShardBlob()).ok());
}

TEST(StoreFuzzTest, CodebookTruncationAtEveryOffset) {
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckTruncationRobustness(
      Int8CodebookBlob(), CodebookDecoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(StoreFuzzTest, CodebookSeededMutations) {
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      Int8CodebookBlob(), CodebookDecoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, options.iterations);
  EXPECT_GT(stats.rejected, 0);
}

TEST(StoreFuzzTest, ManifestTruncationAtEveryOffset) {
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckTruncationRobustness(
      ManifestBlob(), ManifestDecoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(StoreFuzzTest, ManifestSeededMutations) {
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      ManifestBlob(), ManifestDecoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_GT(stats.rejected, 0);
}

TEST(StoreFuzzTest, ShardTruncationSample) {
  // A shard image is ~tens of KiB (page-aligned regions); truncating at
  // every offset is slow for little marginal value, so probe every
  // truncation point in the header page plus a stride through the rest.
  const std::string blob = ShardBlob();
  for (size_t cut = 0; cut < blob.size();
       cut += (cut < kShardHeaderBytes ? 1 : 257)) {
    auto decoded = DecodeShardHeader(blob.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut " << cut;
  }
}

TEST(StoreFuzzTest, ShardSeededMutations) {
  // file_bytes must equal the image size exactly, so *every* size-changing
  // mutation rejects; byte flips inside data regions may still "decode"
  // (the header is intact) — the contract is only no-crash + bounded work.
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      ShardBlob(), ShardDecoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_GT(stats.rejected, 0);
}

TEST(StoreFuzzTest, EvilShardHeadersRejectInConstantTime) {
  const std::string good = ShardBlob();
  // Header layout after the 8-byte magic: u64 rows, dim, kind,
  // code_bytes_per_row, codes_offset, fp32_offset, names_index_offset,
  // names_blob_offset, names_blob_bytes, file_bytes.
  struct Evil {
    size_t offset;
    uint64_t value;
  };
  const std::vector<Evil> cases = {
      {8, ~0ull},                  // rows: would wrap rows+1.
      {8, (1ull << 62)},           // rows: names index bound overflow.
      {16, ~0ull},                 // dim: huge.
      {24, 1},                     // kind: product quantization's.
      {24, 7},                     // kind: unknown.
      {32, ~0ull},                 // code_bytes_per_row: codes bound wrap.
      {40, ~0ull},                 // codes_offset: out of file.
      {48, ~0ull - 7},             // fp32_offset: fp32 bound wrap.
      {56, ~0ull},                 // names_index_offset: wrap.
      {72, ~0ull},                 // names_blob_bytes: huge.
      {80, 1},                     // file_bytes != mapped size.
  };
  for (const Evil& evil : cases) {
    std::string blob = good;
    std::memcpy(blob.data() + evil.offset, &evil.value, 8);
    auto decoded = DecodeShardHeader(blob);
    ASSERT_FALSE(decoded.ok()) << "offset " << evil.offset;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "offset " << evil.offset;
  }
}

}  // namespace
}  // namespace sdea::store
