#ifndef SDEA_SERVE_SERVER_H_
#define SDEA_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "eval/abstention.h"
#include "obs/registry.h"
#include "core/embedding_store.h"
#include "serve/batcher.h"
#include "serve/lru_cache.h"
#include "serve/snapshot.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace sdea::serve {

/// Encodes a batch of attribute texts into a [texts.size(), dim] embedding
/// matrix. In production this wraps the trained attribute-text encoder
/// (e.g. TextAlignmentEncoder); tests and benches plug in cheap
/// deterministic substitutes.
///
/// Contract for batched == serial answer equality: row i of the result
/// must depend only on texts[i] (no cross-row normalization or pooling),
/// so encoding a text in a batch of 40 yields the same bits as encoding it
/// alone. All tmath matmul-based encoders satisfy this (each output row is
/// a pure function of the corresponding input row).
using BatchEncoderFn =
    std::function<Tensor(const std::vector<std::string>&)>;

struct ServerOptions {
  BatcherOptions batcher;
  LruCacheOptions cache;
  /// Key the embedding cache (and feed the encoder) with
  /// text::NormalizeText(query) instead of the raw query string, so
  /// trivially different spellings of one attribute value share an entry.
  bool normalize_text = true;
  /// Registry the server's "serve.*" metrics register on (borrowed; must
  /// outlive the server). Null gives the server a private registry, so
  /// several servers in one process never share counters; point it at
  /// obs::MetricsRegistry::Default() to fold the metrics into the
  /// process-wide exporter view.
  obs::MetricsRegistry* metrics = nullptr;
  /// Calibrated no-match rule (fit offline on dev seeds with
  /// eval::CalibrateAbstainThreshold). When enabled, an answer whose best
  /// candidate fails the score/margin test is the explicit no-match
  /// answer: an OK AlignResult with an empty neighbor list. Disabled by
  /// default (every query returns its top-k). Independent of this rule,
  /// candidates with a non-finite similarity (NaN from zero-norm or
  /// diverged rows, -inf) are always dropped from answers — a nonsense
  /// score is never served as a neighbor.
  eval::AbstainThreshold abstain;
};

/// The online alignment-serving front end: answers "align this entity
/// embedding / this attribute text -> top-k candidates" queries from many
/// concurrent clients against a hot-swappable embedding-store snapshot.
///
/// Request path: client threads submit through a RequestBatcher; the
/// dispatcher thread pins ONE snapshot per batch (so every answer in a
/// batch is coherent even mid-swap), resolves text queries through the
/// sharded LRU cache, batch-encodes the misses with one BatchEncoderFn
/// call, then answers every row with the store's NearestNeighbors —
/// sharded across base::ThreadPool but per-row identical to a serial call,
/// so concurrent batched answers are bitwise-equal to one-at-a-time
/// answers (a tested property, see tests/serve_server_test.cc).
///
/// Snapshot path: SwapSnapshot/LoadSnapshot build the new store off to
/// the side and publish it atomically; in-flight batches finish on
/// the snapshot they pinned. The text cache survives swaps intentionally:
/// cached entries are encoder outputs, which do not depend on the store.
class AlignmentServer {
 public:
  /// `encoder` may be null when only embedding queries will be served;
  /// text queries then fail with InvalidArgument.
  explicit AlignmentServer(const ServerOptions& options = {},
                           BatchEncoderFn encoder = nullptr);
  ~AlignmentServer() = default;

  AlignmentServer(const AlignmentServer&) = delete;
  AlignmentServer& operator=(const AlignmentServer&) = delete;

  /// Publishes `store` as the serving snapshot. Returns the new version.
  /// Callable at any time, including while queries are in flight.
  uint64_t SwapSnapshot(core::EmbeddingStore store);

  /// Loads a store artifact from disk and publishes it (same as
  /// SwapSnapshot otherwise).
  Result<uint64_t> LoadSnapshot(const std::string& path);

  /// Opens a memory-mapped SDEASTOR1 quantized snapshot directory and
  /// publishes it. The quantized store answers with its own ADC-scan +
  /// exact-rerank path, and the snapshot keeps the mmaps alive for every
  /// batch pinned on it.
  Result<uint64_t> LoadQuantizedSnapshot(const std::string& dir);

  /// The snapshot queries are currently answered against; nullptr before
  /// the first swap/load.
  std::shared_ptr<const ServingSnapshot> snapshot() const {
    return snapshots_.Current();
  }
  uint64_t snapshot_version() const { return snapshots_.version(); }

  /// Blocking: top-k store entries most similar to `query` (length =
  /// store dim). k <= 0 yields an empty answer; k > store size clamps.
  AlignResult AlignEmbedding(const Tensor& query, int64_t k);

  /// Blocking: encodes `text` (through the cache) and aligns the result.
  AlignResult AlignText(const std::string& text, int64_t k);

  /// Fire-and-wait-later variants; the future is fulfilled by the
  /// dispatcher thread once the request's batch completes.
  std::future<AlignResult> AlignEmbeddingAsync(Tensor query, int64_t k);
  std::future<AlignResult> AlignTextAsync(std::string text, int64_t k);

  StatsSnapshot stats() const { return stats_.Snapshot(); }

  /// The registry holding the server's "serve.*" metrics (private unless
  /// ServerOptions::metrics injected one); feed it to the obs exporters
  /// for text/Prometheus output.
  obs::MetricsRegistry* metrics() const { return stats_.registry(); }

  /// Benchmark/test helpers. Not synchronized against in-flight queries.
  void ResetStats() { stats_.Reset(); }
  void ClearCache() { cache_.Clear(); }

  /// Replaces the batcher (draining it first) with one using `options`,
  /// keeping the loaded snapshot and cache. Must not race with in-flight
  /// queries; intended for benchmarks sweeping batching configurations on
  /// one loaded server.
  void ReconfigureBatcher(const BatcherOptions& options);

  const ServerOptions& options() const { return options_; }

 private:
  void RunBatch(std::vector<ServeRequest>* batch);

  ServerOptions options_;
  BatchEncoderFn encoder_;
  SnapshotManager snapshots_;
  ShardedLruCache cache_;
  ServeStats stats_;
  // Declared last: destroyed (and therefore drained) first, while the
  // members RunBatch touches are still alive.
  std::unique_ptr<RequestBatcher> batcher_;
};

}  // namespace sdea::serve

#endif  // SDEA_SERVE_SERVER_H_
