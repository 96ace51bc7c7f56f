// obs::MetricsRegistry unit tests: stable handle identity, concurrent
// lock-free recording, snapshot consistency, reset, and the Default()
// process-wide instance.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace sdea::obs {
namespace {

TEST(ObsRegistryTest, GetCounterIsIdempotent) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("queries");
  Counter* b = reg.GetCounter("queries");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_NE(reg.GetCounter("other"), a);
}

TEST(ObsRegistryTest, GetGaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("lr");
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  g->Set(0.5);
  g->Add(0.25);
  EXPECT_DOUBLE_EQ(g->Value(), 0.75);
  EXPECT_EQ(reg.GetGauge("lr"), g);
}

TEST(ObsRegistryTest, GetHistogramIsIdempotentWithSameBounds) {
  MetricsRegistry reg;
  const std::vector<double> bounds = {1.0, 10.0};
  HistogramCell* h = reg.GetHistogram("lat", bounds);
  EXPECT_EQ(reg.GetHistogram("lat", bounds), h);
  h->Record(5.0);
  Histogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(), 1);
  EXPECT_DOUBLE_EQ(snap.min(), 5.0);
  EXPECT_DOUBLE_EQ(snap.max(), 5.0);
  EXPECT_EQ(snap.bucket_counts(), (std::vector<int64_t>{0, 1, 0}));
}

TEST(ObsRegistryTest, EmptyHistogramCellSnapshotsClean) {
  MetricsRegistry reg;
  Histogram snap = reg.GetHistogram("empty", {1.0})->Snapshot();
  EXPECT_EQ(snap.count(), 0);
  EXPECT_DOUBLE_EQ(snap.min(), 0.0);
  EXPECT_DOUBLE_EQ(snap.max(), 0.0);
  EXPECT_DOUBLE_EQ(snap.sum(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 0.0);
}

TEST(ObsRegistryTest, ConcurrentCounterIncrementsAllLand) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hits");
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistryTest, ConcurrentHistogramRecordsAllLand) {
  MetricsRegistry reg;
  HistogramCell* h = reg.GetHistogram("lat", {1.0, 10.0, 100.0});
  constexpr int kThreads = 8, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      // Thread t records t+0.5 so every bucket and min/max get traffic.
      const double v = 0.5 + 13.0 * t;
      for (int i = 0; i < kPerThread; ++i) h->Record(v);
    });
  }
  for (auto& t : threads) t.join();
  Histogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(), int64_t{kThreads} * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t c : snap.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count());
  EXPECT_DOUBLE_EQ(snap.min(), 0.5);
  EXPECT_DOUBLE_EQ(snap.max(), 0.5 + 13.0 * (kThreads - 1));
}

// Snapshot while writers are live: the copy must be well-formed (buckets
// sum to count; min <= max) even though it is not a consistent cut.
TEST(ObsRegistryTest, SnapshotUnderConcurrentWritesIsWellFormed) {
  MetricsRegistry reg;
  HistogramCell* h = reg.GetHistogram("lat", {1.0, 10.0, 100.0});
  Counter* c = reg.GetCounter("n");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      double v = 0.3 + t;
      while (!stop.load(std::memory_order_relaxed)) {
        h->Record(v);
        c->Increment();
        v = v < 200.0 ? v * 1.7 : 0.3 + t;
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    MetricsSnapshot snap = reg.Snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const Histogram& hs = snap.histograms[0].second;
    int64_t total = 0;
    for (int64_t b : hs.bucket_counts()) total += b;
    EXPECT_EQ(total, hs.count());
    if (hs.count() > 0) {
      EXPECT_LE(hs.min(), hs.max());
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(ObsRegistryTest, SnapshotSortsNamesWithinKind) {
  MetricsRegistry reg;
  reg.GetCounter("zeta")->Increment(2);
  reg.GetCounter("alpha")->Increment(1);
  reg.GetGauge("mid")->Set(7.0);
  reg.GetHistogram("h", {1.0})->Record(0.5);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 1);
}

TEST(ObsRegistryTest, ResetZeroesEverythingHandlesStayValid) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Gauge* g = reg.GetGauge("g");
  HistogramCell* h = reg.GetHistogram("h", {1.0});
  c->Increment(5);
  g->Set(3.0);
  h->Record(0.5);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Snapshot().count(), 0);
  // Handles still live and recordable.
  c->Increment();
  EXPECT_EQ(c->Value(), 1u);
}

TEST(ObsRegistryTest, DefaultReturnsSameInstance) {
  EXPECT_EQ(MetricsRegistry::Default(), MetricsRegistry::Default());
  EXPECT_NE(MetricsRegistry::Default(), nullptr);
}

TEST(ObsRegistryTest, SeparateRegistriesAreIsolated) {
  MetricsRegistry a, b;
  a.GetCounter("n")->Increment(4);
  EXPECT_EQ(b.GetCounter("n")->Value(), 0u);
}

}  // namespace
}  // namespace sdea::obs
