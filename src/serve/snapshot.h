#ifndef SDEA_SERVE_SNAPSHOT_H_
#define SDEA_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "base/status.h"
#include "core/embedding_store.h"
#include "kg/columnar.h"
#include "store/quantized_store.h"

namespace sdea::serve {

/// One immutable serving state: a versioned store. Either an in-RAM
/// EmbeddingStore (searched exactly) or a memory-mapped
/// store::QuantizedStore — the variant for stores too large to slurp into
/// RAM, whose pages stay on disk until queries touch them.
/// Once published through SnapshotManager a snapshot is never mutated
/// again, so any number of request threads may read it concurrently; both
/// stores' query methods are const and touch no mutable state.
///
/// The snapshot owns the quantized store's mmaps, and the server pins one
/// snapshot per batch, so results never point into an unmapped region
/// even while a swap retires the snapshot mid-flight.
struct ServingSnapshot {
  uint64_t version = 0;
  core::EmbeddingStore store;
  std::unique_ptr<const store::QuantizedStore> quantized;
  /// Pinned KG snapshot the embeddings were computed from (empty when the
  /// serving state was published without one). Pinning keeps the columnar
  /// chunks alive — lookups against entity names/triples stay consistent
  /// with the embeddings even while the writer keeps mutating the graph.
  kg::KgSnapshot kg;

  bool has_kg() const { return kg.epoch() != 0; }

  int64_t dim() const {
    return quantized != nullptr ? quantized->dim() : store.dim();
  }
  int64_t size() const {
    return quantized != nullptr ? quantized->size() : store.size();
  }
  std::vector<core::EmbeddingStore::Neighbor> NearestNeighbors(
      const Tensor& query, int64_t k) const {
    return quantized != nullptr ? quantized->NearestNeighbors(query, k)
                                : store.NearestNeighbors(query, k);
  }
};

/// Holds the current snapshot behind a shared_ptr and swaps it atomically.
/// Readers pin the snapshot they are answering against with Current(); a
/// concurrent Swap publishes the replacement for *subsequent* readers while
/// in-flight queries finish on the pinned old snapshot, which stays alive
/// until its last shared_ptr drops. This is the zero-downtime reload path:
/// a freshly trained store is built off to the side, then swapped in with
/// one pointer store.
class SnapshotManager {
 public:
  SnapshotManager() = default;
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// The currently published snapshot, or nullptr before the first Swap.
  std::shared_ptr<const ServingSnapshot> Current() const;

  /// Publishes `store` as the new current snapshot and returns its version
  /// (monotonically increasing from 1). Swap itself is just an allocation
  /// and a pointer store.
  uint64_t Swap(core::EmbeddingStore store);

  /// Publishes `store` together with the KG snapshot it was computed from,
  /// so request threads can resolve names/triples against exactly the
  /// graph state behind the embeddings. Pass `graph.Snapshot()` — pinning
  /// is sub-millisecond and the chunks stay alive with the serving
  /// snapshot.
  uint64_t SwapWithKg(core::EmbeddingStore store, kg::KgSnapshot kg);

  /// Loads a store artifact from disk and publishes it. The load happens
  /// entirely outside the swap lock; queries keep flowing against the old
  /// snapshot meanwhile.
  Result<uint64_t> LoadAndSwap(const std::string& path);

  /// Publishes a memory-mapped quantized store. Same pointer-store swap;
  /// the mmaps move into the snapshot and stay alive until the last
  /// in-flight batch drops its pin.
  uint64_t SwapQuantized(store::QuantizedStore qstore);

  /// Opens an SDEASTOR1 snapshot directory (O(ms) — only the manifest
  /// and shard headers are read) and publishes it.
  Result<uint64_t> OpenQuantizedAndSwap(const std::string& dir);

  bool has_snapshot() const { return Current() != nullptr; }

  /// Version of the current snapshot; 0 when none has been published.
  uint64_t version() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServingSnapshot> current_;
  uint64_t last_version_ = 0;  // Guarded by mu_.
};

}  // namespace sdea::serve

#endif  // SDEA_SERVE_SNAPSHOT_H_
