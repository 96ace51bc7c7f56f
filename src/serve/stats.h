#ifndef SDEA_SERVE_STATS_H_
#define SDEA_SERVE_STATS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/registry.h"

namespace sdea::serve {

/// A point-in-time copy of the serving counters: plain values, safe to
/// store, diff between two instants, or print.
struct StatsSnapshot {
  /// Batch-size histogram bucket upper bounds: 1, 2, 4, 8, 16, 32, 64, inf.
  static constexpr int kBatchBuckets = 8;
  /// Latency bucket upper bounds in microseconds:
  /// 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, inf.
  static constexpr int kLatencyBuckets = 10;
  /// Instrumented pipeline stages (indices into latency_hist).
  static constexpr int kNumStages = 3;

  uint64_t queries = 0;            ///< Successfully answered requests.
  uint64_t text_queries = 0;       ///< Of `queries`, text-keyed ones.
  uint64_t embedding_queries = 0;  ///< Of `queries`, embedding-keyed ones.
  uint64_t failed_queries = 0;     ///< Requests answered with an error.
  /// Of `queries`, answers the abstain rule turned into an explicit
  /// no-match (OK status, empty neighbor list). A spike here after a
  /// snapshot swap is the signal that the new embeddings moved under the
  /// calibrated threshold.
  uint64_t no_match_answers = 0;
  /// Dispatched batches (incl. failed): the batch-size histogram's total,
  /// so the two always agree within one snapshot.
  uint64_t batches = 0;
  uint64_t batched_queries = 0;    ///< Sum of batch sizes.
  uint64_t cache_hits = 0;         ///< Text lookups served from the cache.
  uint64_t cache_misses = 0;       ///< Text lookups that needed encoding.
  uint64_t encoded_texts = 0;      ///< Unique texts sent to the encoder.
  uint64_t snapshot_swaps = 0;     ///< Hot swaps since construction/reset.
  std::array<uint64_t, kBatchBuckets> batch_size_hist{};
  std::array<std::array<uint64_t, kLatencyBuckets>, kNumStages>
      latency_hist{};

  /// cache_hits / (cache_hits + cache_misses); 0 when no text lookups.
  double cache_hit_rate() const;

  /// batched_queries / batches; 0 when no batch has been dispatched.
  double mean_batch_size() const;

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

/// Counters shared by all serving threads — now a thin view over
/// obs::MetricsRegistry handles ("serve.*" names), so the serving metrics
/// flow through the same registry, exporters, and Prometheus format as
/// everything else. The recording discipline is unchanged: every mutation
/// is a relaxed atomic increment and Snapshot() a sequence of relaxed
/// loads, so the stats path never takes a lock and never serializes
/// request threads. Snapshot() is therefore not a single consistent cut
/// across counters — concurrent increments may be half-visible — the
/// usual (and documented) monitoring-counter trade-off.
class ServeStats {
 public:
  enum class Stage { kEncode = 0, kSearch = 1, kTotal = 2 };

  /// With no argument each ServeStats owns a private registry, so two
  /// servers in one process never share counters. Pass a registry
  /// (borrowed, must outlive this object) to expose the "serve.*" metrics
  /// on a shared one, e.g. MetricsRegistry::Default() for a process with
  /// a single server and one Prometheus endpoint.
  explicit ServeStats(obs::MetricsRegistry* registry = nullptr);
  ServeStats(const ServeStats&) = delete;
  ServeStats& operator=(const ServeStats&) = delete;

  void RecordQuery(bool is_text);
  void RecordFailedQuery();
  void RecordNoMatch();
  void RecordBatch(uint64_t batch_size);
  void RecordCacheHit();
  void RecordCacheMiss();
  void RecordEncodedTexts(uint64_t count);
  void RecordSwap();
  void RecordLatency(Stage stage, int64_t micros);

  StatsSnapshot Snapshot() const;

  /// Zeroes every counter. Intended for benchmarks sweeping configurations
  /// on one server; not synchronized against concurrent recording.
  void Reset();

  /// The registry the handles live on (owned or borrowed), for exporters.
  obs::MetricsRegistry* registry() const { return registry_; }

 private:
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  obs::Counter* queries_;
  obs::Counter* text_queries_;
  obs::Counter* embedding_queries_;
  obs::Counter* failed_queries_;
  obs::Counter* no_match_answers_;
  obs::Counter* batched_queries_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* encoded_texts_;
  obs::Counter* snapshot_swaps_;
  obs::HistogramCell* batch_size_hist_;
  std::array<obs::HistogramCell*, StatsSnapshot::kNumStages> latency_hist_;
};

}  // namespace sdea::serve

#endif  // SDEA_SERVE_STATS_H_
