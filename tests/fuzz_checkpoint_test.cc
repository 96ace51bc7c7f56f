// Fuzz regression suite for the SDEATRN1 trainer-checkpoint decoder:
// truncation at every offset plus thousands of seeded mutations, and the
// crafted huge-count headers that used to pass the lax `n > blob.size()`
// bound and drive multi-billion-iteration read loops.
#include "train/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "testing/fuzz.h"

namespace sdea::train {
namespace {

TrainerCheckpoint SampleCheckpoint() {
  TrainerCheckpoint ckpt;
  ckpt.next_epoch = 7;
  ckpt.epochs_run = 7;
  ckpt.best_metric = 0.8125;
  ckpt.since_best = 2;
  ckpt.metric_history = {0.25, 0.5, 0.75, 0.8125, 0.80, 0.79, 0.78};
  ckpt.order = {4, 2, 0, 3, 1, 5, 6, 7};
  Rng rng(99);
  rng.Next();
  ckpt.rng = rng.SaveState();
  ckpt.params = std::string("param-blob\x00with\x01binary", 22);
  ckpt.best_params = "best-param-blob";
  ckpt.optimizer = "optimizer-state-blob";
  ckpt.finished = false;
  return ckpt;
}

sdea::testing::DecodeFn Decoder() {
  return [](const std::string& blob) {
    return CheckpointManager::Decode(blob).status();
  };
}

TEST(CheckpointFuzzTest, ValidBlobRoundTrips) {
  const TrainerCheckpoint ckpt = SampleCheckpoint();
  const std::string blob = CheckpointManager::Encode(ckpt);
  auto decoded = CheckpointManager::Decode(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->next_epoch, ckpt.next_epoch);
  EXPECT_EQ(decoded->metric_history, ckpt.metric_history);
  EXPECT_EQ(decoded->order, ckpt.order);
  EXPECT_EQ(decoded->params, ckpt.params);
}

TEST(CheckpointFuzzTest, TruncationAtEveryOffset) {
  const std::string blob = CheckpointManager::Encode(SampleCheckpoint());
  sdea::testing::FuzzStats stats;
  const Status verdict =
      sdea::testing::CheckTruncationRobustness(blob, Decoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, static_cast<int64_t>(blob.size()));
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(CheckpointFuzzTest, SeededMutations) {
  const std::string blob = CheckpointManager::Encode(SampleCheckpoint());
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      blob, Decoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, options.iterations);
  EXPECT_GT(stats.rejected, 0);
}

TEST(CheckpointFuzzTest, HugeHistoryCountRejectsInConstantTime) {
  std::string blob = CheckpointManager::Encode(SampleCheckpoint());
  // metric_history count: first u64 after the magic, next_epoch,
  // epochs_run, best_metric, and since_best fields (8 + 4*8 = 40).
  const uint64_t evil = ~uint64_t{0};
  std::memcpy(blob.data() + 40, &evil, 8);
  auto decoded = CheckpointManager::Decode(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointFuzzTest, EpochCountersPastInt64Rejected) {
  // next_epoch, epochs_run and since_best are u64 on the wire and int64 in
  // memory. A value past INT64_MAX used to decode as a negative counter:
  // next_epoch = 2^64 - 1000 became -1000, and a resume then ran 1000
  // extra epochs (near 2^63, effectively forever).
  const std::string blob = CheckpointManager::Encode(SampleCheckpoint());
  for (const size_t offset : {8u, 16u, 32u}) {
    for (const uint64_t evil : {~uint64_t{0} - 999, uint64_t{1} << 63}) {
      std::string bad = blob;
      std::memcpy(bad.data() + offset, &evil, 8);
      EXPECT_EQ(CheckpointManager::Decode(bad).status().code(),
                StatusCode::kInvalidArgument)
          << "offset " << offset << " value " << evil;
    }
  }
}

}  // namespace
}  // namespace sdea::train
