// SDEASTOR1 wire format: shard images (page-aligned regions, the name
// index), the manifest, and the cross-checks that keep a mismatched pair
// from being served.
#include "store/format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "store/quantizer.h"
#include "tensor/tensor.h"

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

std::vector<std::string> Names(int64_t n) {
  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) names.push_back("e" + std::to_string(i));
  return names;
}

TEST(StoreFormatTest, ShardRoundTripsWithAlignedRegions) {
  const int64_t n = 37, d = 16;
  const Tensor rows = RandomRows(n, d, 1);
  const Codebook cb = Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  const std::vector<std::string> names = Names(n);
  const std::string blob =
      EncodeShard(cb, codes.data(), rows.data(), n, names, 0);

  auto header = DecodeShardHeader(blob);
  ASSERT_TRUE(header.ok()) << header.status().message();
  EXPECT_EQ(header->rows, n);
  EXPECT_EQ(header->dim, d);
  EXPECT_EQ(header->code_bytes_per_row, d);
  // Page alignment is the mmap contract: codes and fp32 regions start on
  // 4096 boundaries so a scan touches no unrelated pages.
  EXPECT_EQ(header->codes_offset % kShardPageBytes, 0u);
  EXPECT_EQ(header->fp32_offset % kShardPageBytes, 0u);
  EXPECT_NE(header->fp32_offset, 0u);
  EXPECT_EQ(header->file_bytes, blob.size());

  // Regions round-trip byte-for-byte.
  EXPECT_EQ(std::memcmp(blob.data() + header->codes_offset, codes.data(),
                        codes.size()),
            0);
  EXPECT_EQ(std::memcmp(blob.data() + header->fp32_offset, rows.data(),
                        static_cast<size_t>(n * d) * sizeof(float)),
            0);
}

TEST(StoreFormatTest, ShardWithoutFullPrecisionOmitsTheRegion) {
  const int64_t n = 5, d = 8;
  const Tensor rows = RandomRows(n, d, 2);
  const Codebook cb = Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  const std::string blob =
      EncodeShard(cb, codes.data(), nullptr, n, Names(n), 0);
  auto header = DecodeShardHeader(blob);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->fp32_offset, 0u);
}

TEST(StoreFormatTest, ShardDecodeRejectsCorruption) {
  const int64_t n = 9, d = 8;
  const Tensor rows = RandomRows(n, d, 3);
  const Codebook cb = Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  const std::string blob =
      EncodeShard(cb, codes.data(), rows.data(), n, Names(n), 0);

  // Truncation, growth, magic damage, and a rows field pointing the name
  // index out of bounds — all InvalidArgument, never a crash.
  EXPECT_FALSE(DecodeShardHeader(blob.substr(0, blob.size() - 1)).ok());
  EXPECT_FALSE(DecodeShardHeader(blob + "x").ok());
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeShardHeader(bad_magic).ok());
  std::string huge_rows = blob;
  const uint64_t big = ~0ull;
  std::memcpy(huge_rows.data() + 8, &big, 8);
  EXPECT_FALSE(DecodeShardHeader(huge_rows).ok());
}

TEST(StoreFormatTest, ManifestRoundTrips) {
  const Tensor rows = RandomRows(20, 8, 4);
  Manifest manifest;
  manifest.dim = 8;
  manifest.total_rows = 20;
  manifest.quantization = Quantization::kInt8;
  manifest.store_full_precision = true;
  manifest.codebook = Codebook::TrainInt8(rows);
  manifest.shards = {ShardInfo{12, 8192}, ShardInfo{8, 8192}};

  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->dim, 8);
  EXPECT_EQ(decoded->total_rows, 20);
  EXPECT_EQ(decoded->quantization, Quantization::kInt8);
  EXPECT_TRUE(decoded->store_full_precision);
  ASSERT_EQ(decoded->shards.size(), 2u);
  EXPECT_EQ(decoded->shards[0].rows, 12);
  EXPECT_EQ(decoded->codebook.Encode(), manifest.codebook.Encode());
}

TEST(StoreFormatTest, ManifestRejectsInconsistency) {
  const Tensor rows = RandomRows(20, 8, 5);
  Manifest manifest;
  manifest.dim = 8;
  manifest.total_rows = 20;
  manifest.quantization = Quantization::kInt8;
  manifest.codebook = Codebook::TrainInt8(rows);
  manifest.shards = {ShardInfo{12, 8192}, ShardInfo{8, 8192}};

  // Shard rows not summing to total_rows.
  Manifest bad_sum = manifest;
  bad_sum.shards[1].rows = 9;
  EXPECT_FALSE(DecodeManifest(EncodeManifest(bad_sum)).ok());

  // Codebook dim disagreeing with the manifest dim.
  Manifest bad_dim = manifest;
  bad_dim.dim = 16;
  EXPECT_FALSE(DecodeManifest(EncodeManifest(bad_dim)).ok());

  // Codebook kind disagreeing with the manifest kind.
  Manifest bad_kind = manifest;
  bad_kind.quantization = Quantization::kPq;
  EXPECT_FALSE(DecodeManifest(EncodeManifest(bad_kind)).ok());

  EXPECT_FALSE(DecodeManifest("").ok());
  EXPECT_FALSE(DecodeManifest("SDEASTOR1").ok());
}

}  // namespace
}  // namespace sdea::store
