#ifndef SDEA_CORE_EMBEDDING_STORE_H_
#define SDEA_CORE_EMBEDDING_STORE_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "core/vector_index.h"
#include "tensor/tensor.h"

namespace sdea::core {

/// A deployable artifact: entity embeddings keyed by entity name, with
/// disk persistence and exact nearest-neighbor queries.
/// This is the piece a downstream service loads after training — the
/// trained model itself is no longer needed to serve alignment queries.
class EmbeddingStore {
 public:
  EmbeddingStore() = default;
  // Move-only: index_ borrows the heap buffer of embeddings_, which a move
  // carries along and a copy would not.
  EmbeddingStore(EmbeddingStore&&) = default;
  EmbeddingStore& operator=(EmbeddingStore&&) = default;

  /// Builds from parallel names/embeddings ([N, d], row i = names[i]).
  /// Names must be unique.
  static Result<EmbeddingStore> Create(std::vector<std::string> names,
                                       Tensor embeddings);

  /// Binary persistence (magic + names + float32 matrix). Round-trips
  /// exactly. Save is atomic (temp file + rename): a crash mid-save leaves
  /// the previous artifact intact, never a torn one, and Load rejects any
  /// truncated/partial file cleanly.
  Status Save(const std::string& path) const;
  static Result<EmbeddingStore> Load(const std::string& path);

  /// The wire format behind Save/Load, exposed blob-level so tests can
  /// corrupt bytes without touching the filesystem. Decode is robust
  /// against arbitrary bytes: any malformed input (bad magic, truncation,
  /// counts or dims that exceed what the blob could hold, duplicate names,
  /// trailing bytes) returns InvalidArgument — never a crash or an
  /// unbounded allocation.
  std::string Encode() const;
  static Result<EmbeddingStore> Decode(std::string_view blob);

  int64_t size() const { return embeddings_.dim(0); }
  /// Embedding dimensionality. Known (and enforced on queries) as soon as
  /// the store was built from a rank-2 matrix — including an empty [0, d]
  /// one; 0 only for a default-constructed store.
  int64_t dim() const {
    return embeddings_.rank() == 2 ? embeddings_.dim(1) : 0;
  }
  const std::vector<std::string>& names() const { return names_; }
  const Tensor& embeddings() const { return embeddings_; }

  /// Row id for `name`, or NotFound.
  Result<int64_t> Find(const std::string& name) const;

  /// The embedding row of `name`.
  Result<Tensor> Get(const std::string& name) const;

  /// One scored query answer.
  struct Neighbor {
    std::string name;
    int64_t id;
    float similarity;
  };

  /// Top-k most cosine-similar entries to `query` (length dim()), ranked
  /// by an exact core::VectorIndex scan of the stored rows. The dim
  /// contract is checked before any early return: a wrong-dim query aborts
  /// (SDEA_CHECK) even when the store is empty or k <= 0, matching
  /// serve/server.cc's per-request dim guard. Defensive edges: k <= 0 or
  /// an empty store yields an empty vector; k > size() clamps. Thread-safe
  /// for concurrent calls (read-only).
  std::vector<Neighbor> NearestNeighbors(const Tensor& query,
                                         int64_t k) const;

 private:
  std::vector<std::string> names_;
  Tensor embeddings_;  // L2-normalized rows.
  VectorIndex index_;  // Ranks embeddings_ in place.
};

}  // namespace sdea::core

#endif  // SDEA_CORE_EMBEDDING_STORE_H_
