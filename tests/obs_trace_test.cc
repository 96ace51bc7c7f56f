// obs::TraceSpan / TraceBuffer unit tests: span recording, nesting depth,
// the runtime disable switch, buffer bounding, and cross-thread ids.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/obs.h"

namespace sdea::obs {
namespace {

// Tests force the runtime switch on/off explicitly so they are
// independent of the SDEA_OBS_ENABLED environment; this fixture restores
// the entry state afterwards.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    SetEnabled(true);
  }
  void TearDown() override { SetEnabled(was_enabled_); }
  bool was_enabled_ = false;
};

TEST_F(ObsTraceTest, SpanRecordsIntoGivenBuffer) {
  TraceBuffer buffer(16);
  { TraceSpan span("unit/outer", &buffer); }
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit/outer");
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_GE(events[0].start_us, 0);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_GT(events[0].tid, 0u);
}

TEST_F(ObsTraceTest, NestedSpansRecordDepthAndCompleteInnerFirst) {
  TraceBuffer buffer(16);
  {
    TraceSpan outer("unit/outer", &buffer);
    {
      TraceSpan inner("unit/inner", &buffer);
      { TraceSpan innermost("unit/innermost", &buffer); }
    }
  }
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: innermost out first.
  EXPECT_EQ(events[0].name, "unit/innermost");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].name, "unit/inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "unit/outer");
  EXPECT_EQ(events[2].depth, 0);
  // Nesting depth unwinds fully: a fresh span is depth 0 again.
  { TraceSpan again("unit/again", &buffer); }
  EXPECT_EQ(buffer.Events().back().depth, 0);
  // The outer interval contains the inner one.
  EXPECT_LE(events[2].start_us, events[1].start_us);
  EXPECT_GE(events[2].start_us + events[2].dur_us,
            events[1].start_us + events[1].dur_us);
}

TEST_F(ObsTraceTest, DisabledSpanRecordsNothing) {
  TraceBuffer buffer(16);
  SetEnabled(false);
  { TraceSpan span("unit/ghost", &buffer); }
  EXPECT_EQ(buffer.size(), 0u);
  SetEnabled(true);
  { TraceSpan span("unit/real", &buffer); }
  EXPECT_EQ(buffer.size(), 1u);
}

TEST_F(ObsTraceTest, BufferBoundsAndCountsDrops) {
  TraceBuffer buffer(4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("unit/span", &buffer);
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.capacity(), 4u);
  EXPECT_EQ(buffer.dropped(), 6u);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST_F(ObsTraceTest, SpansFromDifferentThreadsGetDistinctTids) {
  TraceBuffer buffer(16);
  { TraceSpan span("unit/main", &buffer); }
  std::thread other([&buffer] { TraceSpan span("unit/other", &buffer); });
  other.join();
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(ObsTraceTest, ConcurrentSpansAllLand) {
  TraceBuffer buffer(4096);
  constexpr int kThreads = 4, kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buffer] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan outer("unit/outer", &buffer);
        TraceSpan inner("unit/inner", &buffer);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(buffer.size(), size_t{kThreads} * kPerThread * 2);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST_F(ObsTraceTest, DefaultBufferIsSingleton) {
  EXPECT_EQ(TraceBuffer::Default(), TraceBuffer::Default());
  EXPECT_NE(TraceBuffer::Default(), nullptr);
}

TEST(ObsTraceClockTest, TraceNowMicrosIsMonotonic) {
  const int64_t a = TraceNowMicros();
  const int64_t b = TraceNowMicros();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace sdea::obs
