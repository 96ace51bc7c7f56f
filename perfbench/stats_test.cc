#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

using sdea::obs::TraceEvent;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 0.5), 50);
  EXPECT_EQ(Percentile(OneTo(100), 0.9), 90);
  EXPECT_EQ(Percentile(OneTo(100), 0.99), 99);
  EXPECT_EQ(Percentile(OneTo(100), 1.0), 100);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
  EXPECT_EQ(Percentile(OneTo(1), 0.99), 1);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Mean({3.0, 1.0, 2.0, 6.0}), 3);
  EXPECT_EQ(Mean({}), 0);
}

TEST(PercentileTest, SamplesBeyondMatchesTheRank) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_EQ(SamplesBeyond(1500, 0.99), 15);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10);
  EXPECT_EQ(SamplesBeyond(120, 0.9), 12);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0);
  // Exactly SamplesBeyond values lie above the reported percentile.
  const std::vector<double> v = OneTo(1000);
  const double p99 = Percentile(v, 0.99);
  int64_t above = 0;
  for (double x : v) above += x > p99;
  EXPECT_EQ(above, SamplesBeyond(1000, 0.99));
}

TraceEvent Span(const char* name, int64_t start, int64_t dur, uint32_t tid,
                int32_t depth) {
  TraceEvent e;
  e.name = name;
  e.start_us = start;
  e.dur_us = dur;
  e.tid = tid;
  e.depth = depth;
  return e;
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // train/pretrain [0, 1000) holds two epochs; the second holds an eval,
  // which in turn holds an eval/alignment span.
  const std::vector<TraceEvent> events = {
      Span("train/epoch", 100, 300, 1, 1),
      Span("eval/alignment", 600, 100, 1, 3),
      Span("train/eval", 550, 200, 1, 2),
      Span("train/epoch", 500, 400, 1, 1),
      Span("train/pretrain", 0, 1000, 1, 0),
  };
  const auto layers = SelfTimeByLayer(events);
  ASSERT_EQ(layers.size(), 2u);
  // pretrain 1000 - 700 (epochs) + epochs (300 + 400 - 200) + eval 200 - 100.
  EXPECT_NEAR(layers.at("train"), (300 + 500 + 100) * 1e-6, 1e-12);
  EXPECT_NEAR(layers.at("eval"), 100e-6, 1e-12);
}

TEST(SelfTimeTest, ThreadsAndSiblingsAreIndependent) {
  const std::vector<TraceEvent> events = {
      // Thread 1: two sibling roots; the second is not the first's child.
      Span("core/embed_all", 0, 100, 1, 0),
      Span("core/decide", 100, 50, 1, 0),
      // Thread 2 overlaps in time but nests only with itself.
      Span("serve/batch", 20, 60, 2, 0),
      Span("serve/search", 30, 40, 2, 1),
  };
  const auto layers = SelfTimeByLayer(events);
  EXPECT_NEAR(layers.at("core"), 150e-6, 1e-12);
  EXPECT_NEAR(layers.at("serve"), 60e-6, 1e-12);
}

TEST(SelfTimeTest, ChildTimeIsClippedToTheParent) {
  // Microsecond rounding can leave a child ending past its parent.
  const std::vector<TraceEvent> events = {
      Span("incr/process", 0, 100, 1, 0),
      Span("incr/increment", 0, 101, 1, 1),
  };
  const auto layers = SelfTimeByLayer(events);
  EXPECT_NEAR(layers.at("incr"), 101e-6, 1e-12);
}

}  // namespace
}  // namespace perfbench
