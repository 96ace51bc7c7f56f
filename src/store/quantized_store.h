#ifndef SDEA_STORE_QUANTIZED_STORE_H_
#define SDEA_STORE_QUANTIZED_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/embedding_store.h"
#include "store/format.h"
#include "store/mmap_file.h"
#include "store/quantizer.h"
#include "tensor/tensor.h"

namespace sdea::store {

/// Write-time knobs for a sharded SDEASTOR1 snapshot.
struct StoreWriteOptions {
  /// Rows per shard file. 256K rows keeps a dim-64 int8 shard around
  /// 16 MiB of codes — big enough that the scan is sequential, small
  /// enough that shard writes stay comfortably inside one atomic temp
  /// file each.
  int64_t rows_per_shard = 262144;
  /// Keep page-aligned fp32 rows in each shard for the exact rerank pass.
  /// Disabling shrinks the snapshot to codes + names, but queries then
  /// return ADC scores with no exactness guarantee.
  bool store_full_precision = true;
};

/// A memory-mapped quantized embedding snapshot: the serving counterpart
/// of core::EmbeddingStore for stores too large to slurp into RAM.
/// Open() reads only the manifest and the shard header/name-index pages —
/// O(ms) regardless of row count — and queries page in exactly the code
/// regions they scan plus the fp32 rows they rerank.
///
/// Queries rank through core::VectorIndex, the same search behind
/// EmbeddingStore::NearestNeighbors: the store hands it the int8 ADC scan
/// over every row of every shard and the mmap'd fp32 rows, and the index
/// keeps the max(4k, k + 16) best scan survivors and reranks them with
/// kernels::ScoreDot under the same total order — so whenever the true
/// top-1 survives the pool (measured, not assumed), the top-1 answer is
/// bit-identical to the full-precision store's.
///
/// Thread-safe for concurrent queries (read-only after Open). Move-only:
/// results of name() and row() point into the mappings, so holders must
/// keep the store alive (serve pins it via shared_ptr snapshots).
class QuantizedStore {
 public:
  using Neighbor = core::EmbeddingStore::Neighbor;

  QuantizedStore() = default;
  QuantizedStore(QuantizedStore&&) = default;
  QuantizedStore& operator=(QuantizedStore&&) = default;

  /// Quantizes `embeddings` ([N, d], rows L2-normalized internally,
  /// names unique) and writes a complete snapshot under `dir` (created
  /// if missing): shard files first, manifest last, each via
  /// WriteStringToFileAtomic — a crash mid-write leaves no visible
  /// snapshot, never a partial one.
  static Status Write(const std::string& dir,
                      const std::vector<std::string>& names,
                      const Tensor& embeddings,
                      const StoreWriteOptions& options = {});

  /// Maps an existing snapshot. Decodes the manifest, mmaps every shard,
  /// validates headers and name indexes, and cross-checks both against
  /// the manifest; any disagreement is InvalidArgument.
  static Result<QuantizedStore> Open(const std::string& dir);

  int64_t size() const { return total_rows_; }
  int64_t dim() const { return manifest_.dim; }
  const Codebook& codebook() const { return manifest_.codebook; }
  bool has_full_precision() const { return manifest_.store_full_precision; }

  /// The stored (L2-normalized) fp32 row, or nullptr when the snapshot
  /// was written without full-precision rows. Valid while the store
  /// lives.
  const float* row(int64_t id) const;

  /// The entity name of a row, resolved from the mmap'd name blob.
  std::string name(int64_t id) const;

  /// Compressed scan footprint: code bytes across all shards (what a
  /// full ADC sweep touches).
  int64_t compressed_bytes() const { return compressed_bytes_; }
  /// fp32 region bytes across all shards (0 without full precision).
  int64_t full_precision_bytes() const { return full_precision_bytes_; }

  /// Top-k cosine neighbors of `query` (length dim()), ADC + exact
  /// rerank. Same edge contract as EmbeddingStore::NearestNeighbors:
  /// wrong dim aborts even when empty or k <= 0; k <= 0 or an empty
  /// store yields {}; k clamps to size().
  std::vector<Neighbor> NearestNeighbors(const Tensor& query,
                                         int64_t k) const;

 private:
  struct Shard {
    MmapFile map;
    ShardHeader header;
    int64_t row_begin = 0;  // Global id of this shard's first row.
  };

  const Shard& ShardForRow(int64_t id, int64_t* local) const;

  Manifest manifest_;
  std::vector<Shard> shards_;
  int64_t total_rows_ = 0;
  int64_t compressed_bytes_ = 0;
  int64_t full_precision_bytes_ = 0;
};

}  // namespace sdea::store

#endif  // SDEA_STORE_QUANTIZED_STORE_H_
