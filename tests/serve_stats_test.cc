#include "serve/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace sdea::serve {
namespace {

TEST(ServeStatsTest, StartsZeroed) {
  ServeStats stats;
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, 0u);
  EXPECT_EQ(snap.batches, 0u);
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_hit_rate(), 0.0);
  EXPECT_EQ(snap.mean_batch_size(), 0.0);
}

TEST(ServeStatsTest, CountersAccumulate) {
  ServeStats stats;
  stats.RecordQuery(true);
  stats.RecordQuery(true);
  stats.RecordQuery(false);
  stats.RecordFailedQuery();
  stats.RecordBatch(4);
  stats.RecordCacheHit();
  stats.RecordCacheHit();
  stats.RecordCacheHit();
  stats.RecordCacheMiss();
  stats.RecordEncodedTexts(7);
  stats.RecordSwap();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, 3u);
  EXPECT_EQ(snap.text_queries, 2u);
  EXPECT_EQ(snap.embedding_queries, 1u);
  EXPECT_EQ(snap.failed_queries, 1u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.batched_queries, 4u);
  EXPECT_EQ(snap.cache_hits, 3u);
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.encoded_texts, 7u);
  EXPECT_EQ(snap.snapshot_swaps, 1u);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size(), 4.0);
}

TEST(ServeStatsTest, BatchSizeBucketBoundaries) {
  ServeStats stats;
  // Bucket upper bounds: 1, 2, 4, 8, 16, 32, 64, inf.
  stats.RecordBatch(1);    // bucket 0
  stats.RecordBatch(2);    // bucket 1
  stats.RecordBatch(3);    // bucket 2
  stats.RecordBatch(4);    // bucket 2
  stats.RecordBatch(5);    // bucket 3
  stats.RecordBatch(64);   // bucket 6
  stats.RecordBatch(65);   // bucket 7
  stats.RecordBatch(999);  // bucket 7
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.batch_size_hist[0], 1u);
  EXPECT_EQ(snap.batch_size_hist[1], 1u);
  EXPECT_EQ(snap.batch_size_hist[2], 2u);
  EXPECT_EQ(snap.batch_size_hist[3], 1u);
  EXPECT_EQ(snap.batch_size_hist[4], 0u);
  EXPECT_EQ(snap.batch_size_hist[5], 0u);
  EXPECT_EQ(snap.batch_size_hist[6], 1u);
  EXPECT_EQ(snap.batch_size_hist[7], 2u);
  uint64_t total = 0;
  for (uint64_t c : snap.batch_size_hist) total += c;
  EXPECT_EQ(total, snap.batches);
}

TEST(ServeStatsTest, LatencyBucketBoundaries) {
  ServeStats stats;
  stats.RecordLatency(ServeStats::Stage::kEncode, 0);        // bucket 0
  stats.RecordLatency(ServeStats::Stage::kEncode, 1);        // bucket 0
  stats.RecordLatency(ServeStats::Stage::kEncode, 2);        // bucket 1
  stats.RecordLatency(ServeStats::Stage::kSearch, 1024);     // bucket 5
  stats.RecordLatency(ServeStats::Stage::kTotal, 70000000);  // bucket 9
  const StatsSnapshot snap = stats.Snapshot();
  const int kEncode = static_cast<int>(ServeStats::Stage::kEncode);
  const int kSearch = static_cast<int>(ServeStats::Stage::kSearch);
  const int kTotal = static_cast<int>(ServeStats::Stage::kTotal);
  EXPECT_EQ(snap.latency_hist[kEncode][0], 2u);
  EXPECT_EQ(snap.latency_hist[kEncode][1], 1u);
  EXPECT_EQ(snap.latency_hist[kSearch][5], 1u);
  EXPECT_EQ(snap.latency_hist[kTotal][9], 1u);
}

TEST(ServeStatsTest, ConcurrentIncrementsAllLand) {
  ServeStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.RecordQuery(t % 2 == 0);
        stats.RecordCacheHit();
        stats.RecordBatch(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.cache_hits, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.batches, static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(ServeStatsTest, ResetZeroesEverything) {
  ServeStats stats;
  stats.RecordQuery(true);
  stats.RecordBatch(9);
  stats.RecordCacheMiss();
  stats.RecordLatency(ServeStats::Stage::kTotal, 123);
  stats.Reset();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, 0u);
  EXPECT_EQ(snap.batches, 0u);
  EXPECT_EQ(snap.cache_misses, 0u);
  for (const auto& stage : snap.latency_hist) {
    for (uint64_t c : stage) EXPECT_EQ(c, 0u);
  }
}

// Snapshots taken while writers are live must be well-formed: histogram
// buckets sum to their totals and derived rates stay in range, even
// though a snapshot is relaxed loads, not a consistent cut.
TEST(ServeStatsTest, SnapshotUnderConcurrentWritesIsWellFormed) {
  ServeStats stats;
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stats, &stop, t] {
      uint64_t batch = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        stats.RecordQuery(t % 2 == 0);
        stats.RecordBatch(batch);
        stats.RecordCacheHit();
        stats.RecordCacheMiss();
        stats.RecordLatency(ServeStats::Stage::kTotal,
                            static_cast<uint64_t>(batch * 100));
        batch = batch % 100 + 1;
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const StatsSnapshot snap = stats.Snapshot();
    // The batch count is the batch-size histogram's total, so the two
    // agree on every snapshot, however far writers run between loads.
    uint64_t batch_total = 0;
    for (uint64_t c : snap.batch_size_hist) batch_total += c;
    EXPECT_EQ(batch_total, snap.batches);
    EXPECT_GE(snap.queries, snap.text_queries);
    const double rate = snap.cache_hit_rate();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    if (snap.batches > 0) {
      EXPECT_GE(snap.mean_batch_size(), 1.0);
    }
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  // Quiescent: everything recorded is visible.
  const StatsSnapshot final_snap = stats.Snapshot();
  EXPECT_EQ(final_snap.cache_hits, final_snap.cache_misses);
  EXPECT_EQ(final_snap.queries, final_snap.batches);
}

// ServeStats is a view over registry handles: an injected registry
// exposes the same numbers through the generic metrics snapshot.
TEST(ServeStatsTest, InjectedRegistryExposesServeMetrics) {
  obs::MetricsRegistry registry;
  ServeStats stats(&registry);
  EXPECT_EQ(stats.registry(), &registry);
  stats.RecordQuery(true);
  stats.RecordBatch(3);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  uint64_t text_queries = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve.text_queries") text_queries = value;
  }
  EXPECT_EQ(text_queries, 1u);
  bool found_batch_hist = false;
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "serve.batch_size") {
      found_batch_hist = true;
      EXPECT_EQ(hist.count(), 1);
    }
  }
  EXPECT_TRUE(found_batch_hist);
  // The owning-registry default stays isolated from the injected one.
  ServeStats isolated;
  EXPECT_NE(isolated.registry(), &registry);
  EXPECT_EQ(isolated.Snapshot().queries, 0u);
}

TEST(ServeStatsTest, ToStringMentionsKeyFields) {
  ServeStats stats;
  stats.RecordQuery(true);
  stats.RecordBatch(2);
  stats.RecordCacheHit();
  const std::string s = stats.Snapshot().ToString();
  EXPECT_NE(s.find("1 queries"), std::string::npos);
  EXPECT_NE(s.find("hit rate"), std::string::npos);
  EXPECT_NE(s.find("batch sizes:"), std::string::npos);
}

}  // namespace
}  // namespace sdea::serve
