#include "core/embedding_store.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "base/fileio.h"

namespace sdea::core {
namespace {

constexpr char kMagic[8] = {'S', 'D', 'E', 'A', 'E', 'M', 'B', '1'};

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

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
  out.append(kMagic, sizeof(kMagic));
  AppendU64(&out, names_.size());
  AppendU64(&out, static_cast<uint64_t>(dim()));
  for (const std::string& name : names_) {
    AppendU64(&out, name.size());
    out.append(name);
  }
  out.append(reinterpret_cast<const char*>(embeddings_.data()),
             static_cast<size_t>(embeddings_.size()) * sizeof(float));
  return out;
}

Status EmbeddingStore::Save(const std::string& path) const {
  // Atomic (temp + rename) so a crash mid-save can never leave a torn
  // artifact for a serving snapshot manager to pick up.
  return WriteStringToFileAtomic(path, Encode());
}

Result<EmbeddingStore> EmbeddingStore::Decode(const std::string& in) {
  if (in.size() < sizeof(kMagic) ||
      std::memcmp(in.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an SDEA embedding store");
  }
  size_t pos = sizeof(kMagic);
  uint64_t count = 0, dim = 0;
  if (!ReadU64(in, &pos, &count) || !ReadU64(in, &pos, &dim)) {
    return Status::InvalidArgument("truncated embedding store header");
  }
  // Bound both header fields against what the blob could possibly hold
  // before allocating anything: each name costs >= 8 bytes, each row
  // count*dim floats. Without these a corrupt all-ones count either spins
  // billions of failed reads or throws length_error out of reserve().
  const uint64_t budget = in.size() - pos;
  if (count > budget / 8) {
    return Status::InvalidArgument("embedding store count exceeds blob size");
  }
  const uint64_t max_floats = in.size() / sizeof(float);
  if (count == 0) {
    // An empty store encodes its real dim with no float payload, so the
    // payload bound doesn't apply — but the dim must still fit a tensor
    // shape (a corrupt all-ones dim would wrap negative and abort).
    if (dim > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Status::InvalidArgument("embedding store dim overflows");
    }
  } else if (dim > max_floats || dim > max_floats / count) {
    return Status::InvalidArgument("embedding store dim exceeds blob size");
  }
  std::vector<std::string> names;
  names.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    if (!ReadU64(in, &pos, &len) || len > in.size() - pos) {
      return Status::InvalidArgument("truncated embedding store names");
    }
    names.push_back(in.substr(pos, len));
    pos += len;
  }
  const size_t bytes = static_cast<size_t>(count * dim) * sizeof(float);
  if (bytes > in.size() - pos) {
    return Status::InvalidArgument("truncated embedding store data");
  }
  Tensor embeddings({static_cast<int64_t>(count), static_cast<int64_t>(dim)});
  // An empty store (count or dim 0) has a null data(); memcpy forbids
  // null arguments even for 0 bytes.
  if (bytes > 0) std::memcpy(embeddings.data(), in.data() + pos, bytes);
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

void EmbeddingStore::BuildIndex(const IvfOptions& options) {
  index_.BuildIvf(options);
}

}  // namespace sdea::core
