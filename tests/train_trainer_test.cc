// train::Trainer unit tests: deterministic shuffled batching, the legacy
// early-stopping semantics, callback stop, stats, and the option-validation
// errors.
#include "train/trainer.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "base/rng.h"
#include "nn/module.h"

namespace sdea::train {
namespace {

class ToyNet : public nn::Module {
 public:
  ToyNet() { w = AddParameter("toy.w", Tensor({1, 4})); }
  Parameter* w;
};

// A scriptable task: records every batch the Trainer hands it, bumps its
// single parameter once per batch (so epochs are distinguishable in the
// weights), and replays scripted eval metrics and losses.
class ToyTask : public TrainTask {
 public:
  ToyTask(size_t n, uint64_t seed) : n_(n), rng_(seed) {}

  size_t num_examples() const override { return n_; }
  Rng* rng() override { return &rng_; }

  float TrainBatch(const uint64_t* ids, size_t n) override {
    batches_.emplace_back(ids, ids + n);
    net_.w->value.data()[0] += 1.0f;
    return losses_.empty() ? 2.0f
                           : losses_[(batches_.size() - 1) % losses_.size()];
  }

  double EvalMetric() override {
    const double m = metrics_.empty() ? 0.0 : metrics_[eval_calls_];
    ++eval_calls_;
    return m;
  }

  nn::Module* module() override { return &net_; }

  size_t n_;
  Rng rng_;
  ToyNet net_;
  std::vector<std::vector<uint64_t>> batches_;
  std::vector<double> metrics_;
  std::vector<float> losses_;
  size_t eval_calls_ = 0;
};

// A task without module(), for the mismatch validations.
class BareTask : public TrainTask {
 public:
  explicit BareTask(size_t n) : n_(n), rng_(1) {}
  size_t num_examples() const override { return n_; }
  Rng* rng() override { return &rng_; }
  float TrainBatch(const uint64_t*, size_t) override { return 0.0f; }
  size_t n_;
  Rng rng_;
};

TEST(TrainerTest, FreshPerEpochShuffleMatchesManualReplay) {
  ToyTask task(7, /*seed=*/31);
  TrainerOptions opts;
  opts.max_epochs = 3;
  opts.batch_size = 3;
  opts.shuffle = TrainerOptions::Shuffle::kFreshPerEpoch;
  Trainer trainer(&task, opts);
  ASSERT_TRUE(trainer.Run().ok());

  // 3 epochs x ceil(7/3) batches, sizes 3/3/1.
  ASSERT_EQ(task.batches_.size(), 9u);
  Rng replay(31);
  size_t b = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::vector<uint64_t> order(7);
    std::iota(order.begin(), order.end(), 0u);
    replay.Shuffle(&order);
    std::vector<uint64_t> seen;
    for (int k = 0; k < 3; ++k, ++b) {
      seen.insert(seen.end(), task.batches_[b].begin(),
                  task.batches_[b].end());
    }
    EXPECT_EQ(seen, order) << "epoch " << epoch;
  }
}

TEST(TrainerTest, CumulativeShuffleComposesPermutations) {
  ToyTask task(6, /*seed=*/77);
  TrainerOptions opts;
  opts.max_epochs = 4;
  opts.batch_size = 6;
  opts.shuffle = TrainerOptions::Shuffle::kCumulative;
  Trainer trainer(&task, opts);
  ASSERT_TRUE(trainer.Run().ok());

  ASSERT_EQ(task.batches_.size(), 4u);
  Rng replay(77);
  std::vector<uint64_t> order(6);
  std::iota(order.begin(), order.end(), 0u);
  for (int epoch = 0; epoch < 4; ++epoch) {
    replay.Shuffle(&order);  // No reset: permutations compose.
    EXPECT_EQ(task.batches_[epoch], order) << "epoch " << epoch;
  }
}

TEST(TrainerTest, NoShuffleKeepsIdentityOrder) {
  ToyTask task(5, /*seed=*/5);
  TrainerOptions opts;
  opts.max_epochs = 2;
  opts.batch_size = 5;
  opts.shuffle = TrainerOptions::Shuffle::kNone;
  Trainer trainer(&task, opts);
  ASSERT_TRUE(trainer.Run().ok());
  const std::vector<uint64_t> identity = {0, 1, 2, 3, 4};
  ASSERT_EQ(task.batches_.size(), 2u);
  EXPECT_EQ(task.batches_[0], identity);
  EXPECT_EQ(task.batches_[1], identity);
  // And the RNG was never consumed by the Trainer.
  Rng untouched(5);
  EXPECT_EQ(task.rng_.Next(), untouched.Next());
}

TEST(TrainerTest, EarlyStoppingReplaysLegacyBookkeeping) {
  ToyTask task(4, /*seed=*/9);
  task.metrics_ = {0.5, 0.7, 0.6, 0.6, 0.9, 0.9};
  TrainerOptions opts;
  opts.max_epochs = 6;
  opts.batch_size = 2;
  opts.evaluate = true;
  opts.patience = 2;
  opts.restore_best = true;
  Trainer trainer(&task, opts);
  ASSERT_TRUE(trainer.Run().ok());

  // Epoch 0 (0.5) is the first best; epoch 1 (0.7) improves; epochs 2 and 3
  // (0.6, 0.6) exhaust patience=2. The 0.9 epochs are never reached.
  EXPECT_EQ(trainer.epochs_run(), 4);
  EXPECT_DOUBLE_EQ(trainer.best_metric(), 0.7);
  EXPECT_EQ(trainer.metric_history(),
            (std::vector<double>{0.5, 0.7, 0.6, 0.6}));
  // restore_best rewinds the weights to the end of epoch 1: two epochs of
  // two batches each bumped w[0] by 1 per batch.
  EXPECT_FLOAT_EQ(task.net_.w->value.data()[0], 4.0f);
}

TEST(TrainerTest, FirstEvaluatedEpochAlwaysBecomesBest) {
  ToyTask task(2, /*seed=*/3);
  task.metrics_ = {0.0, 0.0, 0.0};
  TrainerOptions opts;
  opts.max_epochs = 3;
  opts.batch_size = 2;
  opts.evaluate = true;
  opts.patience = 2;
  Trainer trainer(&task, opts);
  ASSERT_TRUE(trainer.Run().ok());
  // metric 0.0 is not > best_metric_ (0.0), but the first epoch still
  // becomes the best — so patience counts from epoch 1, not epoch 0.
  EXPECT_EQ(trainer.epochs_run(), 3);
  EXPECT_DOUBLE_EQ(trainer.best_metric(), 0.0);
}

TEST(TrainerTest, CallbackStopsTraining) {
  ToyTask task(3, /*seed=*/2);
  TrainerOptions opts;
  opts.max_epochs = 10;
  opts.batch_size = 3;
  opts.on_epoch = [](const EpochStats& es) { return es.epoch < 1; };
  Trainer trainer(&task, opts);
  auto stats = trainer.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epochs.size(), 2u);  // Stopped after epoch 1.
}

TEST(TrainerTest, StatsCountBatchesExamplesAndLosses) {
  ToyTask task(7, /*seed=*/4);
  task.losses_ = {2.0f};
  TrainerOptions opts;
  opts.max_epochs = 2;
  opts.batch_size = 3;
  Trainer trainer(&task, opts);
  auto stats = trainer.Run();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->epochs.size(), 2u);
  for (const EpochStats& es : stats->epochs) {
    EXPECT_EQ(es.num_batches, 3);
    EXPECT_EQ(es.num_examples, 7);
    EXPECT_DOUBLE_EQ(es.loss_sum, 6.0);
    EXPECT_DOUBLE_EQ(es.mean_loss(), 2.0);
    EXPECT_FALSE(es.has_eval);
    EXPECT_GE(es.wall_ms, 0.0);
  }
  EXPECT_EQ(stats->batch_loss.count(), 6);
  EXPECT_DOUBLE_EQ(stats->batch_loss.mean(), 2.0);
  EXPECT_EQ(stats->batch_ms.count(), 6);
  EXPECT_GE(stats->total_wall_ms, 0.0);
}

TEST(TrainerTest, HistogramBucketsAndQuantiles) {
  Histogram h({1.0, 10.0, 100.0});
  for (double v : {0.5, 0.7, 5.0, 50.0, 500.0}) h.Record(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.sum(), 556.2);
  EXPECT_EQ(h.bucket_counts(), (std::vector<int64_t>{2, 1, 1, 1}));
  // P(v <= 1) = 0.4, P(v <= 10) = 0.6: the median lands in bound 10.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.4), 1.0);
  // The unbounded tail reports the observed max.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 500.0);
  EXPECT_NE(h.Summary().find("count=5"), std::string::npos);
  Histogram empty = MakeLossHistogram();
  EXPECT_EQ(empty.count(), 0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
}

TEST(TrainerTest, ValidatesOptionCombinations) {
  {
    BareTask empty(0);
    EXPECT_EQ(Trainer(&empty, {}).Run().status().code(),
              StatusCode::kInvalidArgument);
  }
  BareTask bare(4);
  {
    TrainerOptions o;
    o.batch_size = 0;
    EXPECT_EQ(Trainer(&bare, o).Run().status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    TrainerOptions o;
    o.patience = 3;  // Without evaluate.
    EXPECT_EQ(Trainer(&bare, o).Run().status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    TrainerOptions o;
    o.evaluate = true;
    o.restore_best = true;  // Task has no module().
    EXPECT_EQ(Trainer(&bare, o).Run().status().code(),
              StatusCode::kFailedPrecondition);
  }
  {
    TrainerOptions o;
    o.restore_best = true;  // Without evaluate: invalid before the module
    EXPECT_EQ(Trainer(&bare, o).Run().status().code(),  // check fires.
              StatusCode::kInvalidArgument);
  }
  {
    CheckpointManager mgr("/tmp/sdea_trainer_validate.ckpt");
    TrainerOptions o;
    o.checkpoint = &mgr;  // Task has no module().
    EXPECT_EQ(Trainer(&bare, o).Run().status().code(),
              StatusCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace sdea::train
