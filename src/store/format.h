#ifndef SDEA_STORE_FORMAT_H_
#define SDEA_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "store/quantizer.h"

namespace sdea::store {

/// The SDEASTOR1 on-disk snapshot layout: one small `manifest.sdea` plus
/// `shard-NNNNN.sdea` files, all written via WriteStringToFileAtomic with
/// the manifest LAST — until the manifest lands, the snapshot does not
/// exist, so a crash mid-write can never expose a partial store.
///
/// Shard files are built for mmap: a fixed 4096-byte header page, then
/// page-aligned code and fp32 regions so a query touches only the pages
/// it scans. All integers are little-endian u64, written and read through
/// base/wire; every decoder honours the DESIGN.md §8 contract — arbitrary
/// bytes produce ok() or InvalidArgument, never a crash, hang, or
/// unbounded allocation.

constexpr int64_t kShardHeaderBytes = 4096;
constexpr int64_t kShardPageBytes = 4096;

/// Per-shard accounting carried by the manifest, cross-checked against
/// the shard's own header at open time.
struct ShardInfo {
  int64_t rows = 0;
  int64_t file_bytes = 0;
};

/// The decoded `manifest.sdea`.
struct Manifest {
  int64_t dim = 0;
  int64_t total_rows = 0;
  bool store_full_precision = true;
  Codebook codebook;
  std::vector<ShardInfo> shards;
};

std::string EncodeManifest(const Manifest& manifest);
Result<Manifest> DecodeManifest(std::string_view blob);

/// The fixed-size header page at the front of every shard file. Offsets
/// are absolute file offsets; fp32_offset == 0 means the shard carries no
/// full-precision region (rerank disabled at write time).
struct ShardHeader {
  int64_t rows = 0;
  int64_t dim = 0;
  int64_t code_bytes_per_row = 0;
  uint64_t codes_offset = 0;
  uint64_t fp32_offset = 0;
  uint64_t names_index_offset = 0;
  uint64_t names_blob_offset = 0;
  uint64_t names_blob_bytes = 0;
  uint64_t file_bytes = 0;
};

/// Builds a complete shard file image: header page + codes + optional
/// fp32 rows + the name offset index (u64[rows+1]) + the name bytes.
/// `codes` must be rows*code_bytes bytes; `fp32` is nullptr or rows*dim
/// floats; `names` must have exactly `rows` entries.
std::string EncodeShard(const Codebook& codebook, const uint8_t* codes,
                        const float* fp32, int64_t rows,
                        const std::vector<std::string>& names,
                        int64_t names_begin);

/// Validates a shard image (mmap'd bytes or an in-memory blob): magic,
/// header-field bounds with overflow guards, every region inside
/// [header, size), a monotone name index that ends exactly at the name
/// blob's size, and a name blob that ends the image. O(rows) for the
/// index scan — the only region this touches — everything else is header
/// arithmetic.
Result<ShardHeader> DecodeShardHeader(std::string_view image);

/// `dir`-relative file names.
std::string ManifestPath(const std::string& dir);
std::string ShardPath(const std::string& dir, int64_t index);

}  // namespace sdea::store

#endif  // SDEA_STORE_FORMAT_H_
