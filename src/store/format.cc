#include "store/format.h"

#include <cstdio>
#include <limits>

#include "base/check.h"
#include "base/wire.h"

namespace sdea::store {
namespace {

// 9 bytes on purpose (the format name, verbatim); the shard magic keeps
// the house 8-byte width.
constexpr std::string_view kManifestMagic = "SDEASTOR1";
constexpr std::string_view kShardMagic = "SDEASHD1";

constexpr uint64_t kInt64Max =
    static_cast<uint64_t>(std::numeric_limits<int64_t>::max());

uint64_t AlignUp(uint64_t x, uint64_t a) { return (x + a - 1) / a * a; }

void PadTo(std::string* out, size_t target) {
  SDEA_CHECK(out->size() <= target);
  out->append(target - out->size(), '\0');
}

}  // namespace

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.sdea";
}

std::string ShardPath(const std::string& dir, int64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05lld.sdea",
                static_cast<long long>(index));
  return dir + "/" + buf;
}

std::string EncodeManifest(const Manifest& manifest) {
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kManifestMagic);
  w.U64(1);  // Format version.
  w.U64(static_cast<uint64_t>(manifest.dim));
  w.U64(static_cast<uint64_t>(manifest.total_rows));
  w.U64(static_cast<uint64_t>(manifest.quantization));
  w.U64(manifest.store_full_precision ? 1 : 0);
  w.Str64(manifest.codebook.Encode());
  w.U64(manifest.shards.size());
  for (const ShardInfo& shard : manifest.shards) {
    w.U64(static_cast<uint64_t>(shard.rows));
    w.U64(static_cast<uint64_t>(shard.file_bytes));
  }
  return out;
}

Result<Manifest> DecodeManifest(std::string_view in) {
  wire::Reader r(in, "store manifest");
  SDEA_RETURN_IF_ERROR(r.Magic(kManifestMagic));
  uint64_t version = 0, kind = 0, sfp = 0;
  Manifest manifest;
  SDEA_RETURN_IF_ERROR(r.U64(&version));
  SDEA_RETURN_IF_ERROR(r.NonNegI64(&manifest.dim));
  SDEA_RETURN_IF_ERROR(r.NonNegI64(&manifest.total_rows));
  SDEA_RETURN_IF_ERROR(r.U64(&kind));
  SDEA_RETURN_IF_ERROR(r.U64(&sfp));
  if (version != 1) {
    return Status::InvalidArgument("unsupported store manifest version");
  }
  if (kind != static_cast<uint64_t>(Quantization::kInt8) &&
      kind != static_cast<uint64_t>(Quantization::kPq)) {
    return Status::InvalidArgument("unknown store quantization kind");
  }
  if (sfp > 1) {
    return Status::InvalidArgument("store manifest boolean out of range");
  }
  std::string_view codebook;
  SDEA_RETURN_IF_ERROR(r.Str64(&codebook));
  SDEA_ASSIGN_OR_RETURN(manifest.codebook, Codebook::Decode(codebook));
  manifest.quantization = static_cast<Quantization>(kind);
  manifest.store_full_precision = sfp == 1;
  if (manifest.codebook.kind() != manifest.quantization ||
      manifest.codebook.dim() != manifest.dim) {
    return Status::InvalidArgument(
        "store manifest codebook disagrees with manifest header");
  }
  uint64_t shard_count = 0;
  SDEA_RETURN_IF_ERROR(r.Count(16, &shard_count));
  manifest.shards.reserve(shard_count);
  uint64_t rows_sum = 0;
  for (uint64_t i = 0; i < shard_count; ++i) {
    uint64_t rows = 0, file_bytes = 0;
    SDEA_RETURN_IF_ERROR(r.U64(&rows));
    SDEA_RETURN_IF_ERROR(r.U64(&file_bytes));
    if (rows > kInt64Max - rows_sum ||
        file_bytes < static_cast<uint64_t>(kShardHeaderBytes) ||
        file_bytes > kInt64Max) {
      return Status::InvalidArgument("store manifest shard sizes overflow");
    }
    rows_sum += rows;
    manifest.shards.push_back(ShardInfo{static_cast<int64_t>(rows),
                                        static_cast<int64_t>(file_bytes)});
  }
  SDEA_RETURN_IF_ERROR(r.Finish());
  if (rows_sum != static_cast<uint64_t>(manifest.total_rows)) {
    return Status::InvalidArgument(
        "store manifest shard rows do not sum to total_rows");
  }
  return manifest;
}

std::string EncodeShard(const Codebook& codebook, const uint8_t* codes,
                        const float* fp32, int64_t rows,
                        const std::vector<std::string>& names,
                        int64_t names_begin) {
  SDEA_CHECK_GE(rows, 0);
  SDEA_CHECK_GE(names_begin, 0);
  SDEA_CHECK(names_begin + rows <= static_cast<int64_t>(names.size()));
  const uint64_t dim = static_cast<uint64_t>(codebook.dim());
  const uint64_t cbpr = static_cast<uint64_t>(codebook.code_bytes());
  const uint64_t urows = static_cast<uint64_t>(rows);

  ShardHeader h;
  h.rows = rows;
  h.dim = static_cast<int64_t>(dim);
  h.quantization = static_cast<uint64_t>(codebook.kind());
  h.code_bytes_per_row = static_cast<int64_t>(cbpr);
  h.codes_offset = static_cast<uint64_t>(kShardHeaderBytes);
  const uint64_t codes_end = h.codes_offset + urows * cbpr;
  uint64_t end = codes_end;
  if (fp32 != nullptr) {
    h.fp32_offset = AlignUp(codes_end, kShardPageBytes);
    end = h.fp32_offset + urows * dim * sizeof(float);
  }
  h.names_index_offset = AlignUp(end, 8);
  h.names_blob_offset = h.names_index_offset + (urows + 1) * 8;
  h.names_blob_bytes = 0;
  for (int64_t i = 0; i < rows; ++i) {
    h.names_blob_bytes += names[static_cast<size_t>(names_begin + i)].size();
  }
  h.file_bytes = h.names_blob_offset + h.names_blob_bytes;

  std::string out;
  out.reserve(static_cast<size_t>(h.file_bytes));
  wire::Writer w(&out);
  w.Bytes(kShardMagic);
  w.U64(static_cast<uint64_t>(h.rows));
  w.U64(static_cast<uint64_t>(h.dim));
  w.U64(h.quantization);
  w.U64(static_cast<uint64_t>(h.code_bytes_per_row));
  w.U64(h.codes_offset);
  w.U64(h.fp32_offset);
  w.U64(h.names_index_offset);
  w.U64(h.names_blob_offset);
  w.U64(h.names_blob_bytes);
  w.U64(h.file_bytes);
  PadTo(&out, static_cast<size_t>(h.codes_offset));
  w.Bytes(codes, static_cast<size_t>(urows * cbpr));
  if (fp32 != nullptr) {
    PadTo(&out, static_cast<size_t>(h.fp32_offset));
    w.Bytes(fp32, static_cast<size_t>(urows * dim * sizeof(float)));
  }
  PadTo(&out, static_cast<size_t>(h.names_index_offset));
  uint64_t offset = 0;
  w.U64(offset);
  for (int64_t i = 0; i < rows; ++i) {
    offset += names[static_cast<size_t>(names_begin + i)].size();
    w.U64(offset);
  }
  for (int64_t i = 0; i < rows; ++i) {
    w.Bytes(names[static_cast<size_t>(names_begin + i)]);
  }
  SDEA_CHECK_EQ(static_cast<uint64_t>(out.size()), h.file_bytes);
  return out;
}

Result<ShardHeader> DecodeShardHeader(std::string_view image) {
  if (image.size() < static_cast<size_t>(kShardHeaderBytes)) {
    return Status::InvalidArgument("not an SDEA store shard");
  }
  wire::Reader r(image, "store shard");
  SDEA_RETURN_IF_ERROR(r.Magic(kShardMagic));
  uint64_t f[10];
  for (uint64_t& field : f) SDEA_RETURN_IF_ERROR(r.U64(&field));
  const uint64_t rows = f[0], dim = f[1], kind = f[2], cbpr = f[3];
  const uint64_t codes_off = f[4], fp32_off = f[5], index_off = f[6];
  const uint64_t blob_off = f[7], blob_bytes = f[8], file_bytes = f[9];
  const uint64_t usize = static_cast<uint64_t>(image.size());

  // The image must be exactly the advertised length: an mmap'd shard that
  // was truncated (or grew) after the manifest was written is corrupt,
  // and every bound below leans on size == file_bytes.
  if (file_bytes != usize) {
    return Status::InvalidArgument("store shard size mismatch");
  }
  if (kind != static_cast<uint64_t>(Quantization::kInt8) &&
      kind != static_cast<uint64_t>(Quantization::kPq)) {
    return Status::InvalidArgument("unknown store shard quantization kind");
  }
  const uint64_t header = static_cast<uint64_t>(kShardHeaderBytes);
  // Coarse bounds first so every count fits int64 and rows + 1 cannot
  // wrap: the name index alone needs 8 bytes per row, so rows > size/8
  // is unconditionally corrupt, and dim/cbpr size at least one byte per
  // unit somewhere in the file when rows > 0 (rows == 0 would otherwise
  // leave them unbounded).
  if (rows > usize / 8 || dim > usize || cbpr > usize) {
    return Status::InvalidArgument("store shard counts overflow");
  }
  // Each region check guards its multiplication by bounding the
  // per-row size against the bytes remaining past the region's start.
  if (codes_off < header || codes_off > usize ||
      (rows > 0 && cbpr > (usize - codes_off) / rows)) {
    return Status::InvalidArgument("store shard code region out of bounds");
  }
  if (fp32_off != 0 &&
      (fp32_off < header || fp32_off > usize ||
       (rows > 0 && dim > (usize - fp32_off) / sizeof(float) / rows))) {
    return Status::InvalidArgument("store shard fp32 region out of bounds");
  }
  if (index_off < header || index_off > usize ||
      rows + 1 > (usize - index_off) / 8) {
    return Status::InvalidArgument("store shard name index out of bounds");
  }
  // The name blob is the last region: it ends exactly at the image's end,
  // so no byte of the shard goes unaccounted for.
  if (blob_off > usize || blob_bytes != usize - blob_off) {
    return Status::InvalidArgument(
        "store shard name blob does not end the image");
  }
  // The name index must start at 0, be monotone, and end exactly at the
  // blob size — after this, name lookups are branch-free substrings.
  const uint8_t* index =
      reinterpret_cast<const uint8_t*>(image.data()) + index_off;
  uint64_t prev = wire::LoadU64(index);
  if (prev != 0) {
    return Status::InvalidArgument("store shard name index must start at 0");
  }
  for (uint64_t i = 1; i <= rows; ++i) {
    const uint64_t entry = wire::LoadU64(index + 8 * i);
    if (entry < prev || entry > blob_bytes) {
      return Status::InvalidArgument("store shard name index not monotone");
    }
    prev = entry;
  }
  if (prev != blob_bytes) {
    return Status::InvalidArgument(
        "store shard name index does not cover the blob");
  }

  ShardHeader h;
  h.rows = static_cast<int64_t>(rows);
  h.dim = static_cast<int64_t>(dim);
  h.quantization = kind;
  h.code_bytes_per_row = static_cast<int64_t>(cbpr);
  h.codes_offset = codes_off;
  h.fp32_offset = fp32_off;
  h.names_index_offset = index_off;
  h.names_blob_offset = blob_off;
  h.names_blob_bytes = blob_bytes;
  h.file_bytes = file_bytes;
  return h;
}

}  // namespace sdea::store
