#include "core/embedding_store.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::core {
namespace {

constexpr std::string_view kMagic = "SDEAEMB1";

}  // namespace

Result<EmbeddingStore> EmbeddingStore::Create(std::vector<std::string> names,
                                              Tensor embeddings) {
  if (embeddings.rank() != 2 ||
      embeddings.dim(0) != static_cast<int64_t>(names.size())) {
    return Status::InvalidArgument(
        "embeddings must be [names.size(), d]");
  }
  std::unordered_set<std::string> unique(names.begin(), names.end());
  if (unique.size() != names.size()) {
    return Status::InvalidArgument("entity names must be unique");
  }
  EmbeddingStore store;
  store.names_ = std::move(names);
  store.embeddings_ = std::move(embeddings);
  tmath::L2NormalizeRowsInPlace(&store.embeddings_);
  store.index_ =
      VectorIndex(store.embeddings_.data(), store.size(), store.dim());
  return store;
}

std::string EmbeddingStore::Encode() const {
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kMagic);
  w.U64(names_.size());
  w.U64(static_cast<uint64_t>(dim()));
  for (const std::string& name : names_) w.Str64(name);
  w.Bytes(embeddings_.data(),
          static_cast<size_t>(embeddings_.size()) * sizeof(float));
  return out;
}

Status EmbeddingStore::Save(const std::string& path) const {
  // Atomic (temp + rename) so a crash mid-save can never leave a torn
  // artifact for a serving snapshot manager to pick up.
  return WriteStringToFileAtomic(path, Encode());
}

Result<EmbeddingStore> EmbeddingStore::Decode(std::string_view in) {
  wire::Reader r(in, "embedding store");
  SDEA_RETURN_IF_ERROR(r.Magic(kMagic));
  // Both header fields are bounded against what the blob could possibly
  // hold before anything is allocated: each name costs >= 8 bytes, the
  // payload count*dim floats, and dim must fit a tensor shape even when
  // count is 0 (an empty store still encodes its real dim).
  uint64_t count = 0;
  int64_t dim = 0;
  SDEA_RETURN_IF_ERROR(r.Count(8, &count));
  SDEA_RETURN_IF_ERROR(r.NonNegI64(&dim));
  if (count > 0 &&
      static_cast<uint64_t>(dim) > r.remaining() / sizeof(float) / count) {
    return Status::InvalidArgument("embedding store dim exceeds blob size");
  }
  std::vector<std::string> names(count);
  for (std::string& name : names) SDEA_RETURN_IF_ERROR(r.Str64(&name));
  std::string_view payload;
  SDEA_RETURN_IF_ERROR(
      r.Bytes(count * static_cast<uint64_t>(dim) * sizeof(float), &payload));
  SDEA_RETURN_IF_ERROR(r.Finish());
  Tensor embeddings({static_cast<int64_t>(count), dim});
  // An empty store (count or dim 0) has a null data(); memcpy forbids
  // null arguments even for 0 bytes.
  if (!payload.empty()) {
    std::memcpy(embeddings.data(), payload.data(), payload.size());
  }
  return Create(std::move(names), std::move(embeddings));
}

Result<EmbeddingStore> EmbeddingStore::Load(const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(std::string in, ReadFileToString(path));
  auto decoded = Decode(in);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

Result<int64_t> EmbeddingStore::Find(const std::string& name) const {
  // Linear scan is fine for the store sizes here; an id map would be easy
  // to add if Find became hot.
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int64_t>(i);
  }
  return Status::NotFound("entity not in store: " + name);
}

Result<Tensor> EmbeddingStore::Get(const std::string& name) const {
  SDEA_ASSIGN_OR_RETURN(int64_t id, Find(name));
  return embeddings_.Row(id);
}

std::vector<EmbeddingStore::Neighbor> EmbeddingStore::NearestNeighbors(
    const Tensor& query, int64_t k) const {
  // The dim contract comes before the trivial-answer returns: checking it
  // after them let a wrong-dim query against an empty store (or with
  // k <= 0) silently succeed with {}, hiding the caller bug — the same
  // guard serve/server.cc applies per request. A default-constructed store
  // (dim() == 0) has no contract to enforce.
  if (dim() > 0) SDEA_CHECK_EQ(query.size(), dim());
  std::vector<Neighbor> out;
  for (const VectorIndex::Hit& hit : index_.Search(query.data(), k)) {
    out.push_back(
        Neighbor{names_[static_cast<size_t>(hit.id)], hit.id, hit.score});
  }
  return out;
}

}  // namespace sdea::core
