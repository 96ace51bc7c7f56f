// Checkpoint/resume tests: wire-format round trip and corruption handling,
// and the headline guarantee — a run killed mid-training and resumed from
// its checkpoint finishes bitwise-identical to the uninterrupted run
// (parameters, Adam moments, RNG stream, cumulative order, and the
// early-stopping bookkeeping all restored).
#include "train/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/fileio.h"
#include "base/rng.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialization.h"
#include "train/trainer.h"

namespace sdea::train {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

class WalkNet : public nn::Module {
 public:
  explicit WalkNet(int64_t dim = 8) {
    w = AddParameter("walk.w", Tensor({1, dim}));
  }
  Parameter* w;
};

// A task whose updates depend on the RNG stream, the example order, and the
// Adam moments: any state the resume path fails to restore shows up as a
// parameter difference within one epoch.
class WalkTask : public TrainTask {
 public:
  explicit WalkTask(uint64_t seed) : rng_(seed) {
    optimizer_ = std::make_unique<nn::Adam>(net_.Parameters(), 0.05f);
  }

  size_t num_examples() const override { return 6; }
  Rng* rng() override { return &rng_; }

  float TrainBatch(const uint64_t* ids, size_t n) override {
    net_.ZeroGrad();
    float* g = net_.w->grad.data();
    for (size_t i = 0; i < n; ++i) {
      g[ids[i] % 8] += rng_.UniformFloat(-1.0f, 1.0f);
    }
    optimizer_->Step();
    return net_.w->value.data()[0];
  }

  double EvalMetric() override {
    return static_cast<double>(net_.w->value.data()[0]);
  }

  nn::Module* module() override { return &net_; }
  nn::Optimizer* optimizer() override { return optimizer_.get(); }

  Rng rng_;
  WalkNet net_;
  std::unique_ptr<nn::Optimizer> optimizer_;
};

TrainerOptions WalkOptions() {
  TrainerOptions opts;
  opts.max_epochs = 8;
  opts.batch_size = 3;
  opts.shuffle = TrainerOptions::Shuffle::kCumulative;
  opts.evaluate = true;
  opts.restore_best = true;
  return opts;
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  TrainerCheckpoint ckpt;
  ckpt.next_epoch = 7;
  ckpt.epochs_run = 6;
  ckpt.best_metric = 0.875;
  ckpt.since_best = 2;
  ckpt.metric_history = {0.1, 0.875, 0.5};
  ckpt.order = {3, 1, 4, 1, 5};
  Rng rng(12345);
  rng.Normal();  // Populate the Box-Muller cache.
  ckpt.rng = rng.SaveState();
  ckpt.params = std::string("params\0blob", 11);
  ckpt.best_params = "best";
  ckpt.optimizer = "opt-state";
  ckpt.finished = true;

  auto decoded = CheckpointManager::Decode(CheckpointManager::Encode(ckpt));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->next_epoch, 7);
  EXPECT_EQ(decoded->epochs_run, 6);
  EXPECT_DOUBLE_EQ(decoded->best_metric, 0.875);
  EXPECT_EQ(decoded->since_best, 2);
  EXPECT_EQ(decoded->metric_history, ckpt.metric_history);
  EXPECT_EQ(decoded->order, ckpt.order);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(decoded->rng.s[i], ckpt.rng.s[i]);
  EXPECT_EQ(decoded->rng.has_cached_normal, ckpt.rng.has_cached_normal);
  EXPECT_DOUBLE_EQ(decoded->rng.cached_normal, ckpt.rng.cached_normal);
  EXPECT_EQ(decoded->params, ckpt.params);
  EXPECT_EQ(decoded->best_params, "best");
  EXPECT_EQ(decoded->optimizer, "opt-state");
  EXPECT_TRUE(decoded->finished);
}

TEST(CheckpointTest, DecodeRejectsCorruptBlobs) {
  TrainerCheckpoint ckpt;
  ckpt.order = {0, 1, 2};
  ckpt.params = "p";
  const std::string blob = CheckpointManager::Encode(ckpt);

  // Wrong magic.
  std::string bad = blob;
  bad[0] = 'X';
  EXPECT_EQ(CheckpointManager::Decode(bad).status().code(),
            StatusCode::kInvalidArgument);
  // Truncations at every prefix length must fail cleanly, never crash.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(CheckpointManager::Decode(blob.substr(0, len)).ok())
        << "prefix " << len;
  }
  // Trailing garbage.
  EXPECT_EQ(CheckpointManager::Decode(blob + "x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, LoadMissingFileFailsWithPath) {
  CheckpointManager mgr(TempPath("sdea_ckpt_missing_xyz"));
  EXPECT_FALSE(mgr.Exists());
  auto r = mgr.Load();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("sdea_ckpt_missing_xyz"),
            std::string::npos);
}

TEST(CheckpointTest, KillAndResumeIsBitwiseIdentical) {
  const std::string live = TempPath("sdea_ckpt_kill_live.ckpt");
  const std::string frozen = TempPath("sdea_ckpt_kill_frozen.ckpt");
  std::remove(live.c_str());
  std::remove(frozen.c_str());

  // Reference: the uninterrupted run.
  WalkTask ref(/*seed=*/42);
  Trainer ref_trainer(&ref, WalkOptions());
  ASSERT_TRUE(ref_trainer.Run().ok());
  const std::string ref_params = nn::SerializeParameters(&ref.net_);

  // "Killed" run: checkpoints every epoch; at epoch 5 we freeze a copy of
  // the checkpoint file as it would be left on disk by a kill (it holds the
  // mid-save taken after epoch 4, i.e. next_epoch = 5).
  WalkTask killed(/*seed=*/42);
  CheckpointManager live_mgr(live);
  TrainerOptions opts = WalkOptions();
  opts.checkpoint = &live_mgr;
  opts.on_epoch = [&](const EpochStats& es) {
    if (es.epoch == 5) {
      auto blob = ReadFileToString(live);
      EXPECT_TRUE(blob.ok());
      EXPECT_TRUE(WriteStringToFile(frozen, *blob).ok());
    }
    return true;
  };
  Trainer killed_trainer(&killed, opts);
  ASSERT_TRUE(killed_trainer.Run().ok());
  // Checkpointing itself must not perturb the numerics.
  EXPECT_EQ(nn::SerializeParameters(&killed.net_), ref_params);

  // Resume: a fresh process (fresh task, fresh RNG, fresh Adam) picks up
  // the frozen mid-run checkpoint and finishes.
  WalkTask resumed(/*seed=*/42);
  CheckpointManager frozen_mgr(frozen);
  TrainerOptions resume_opts = WalkOptions();
  resume_opts.checkpoint = &frozen_mgr;
  Trainer resumed_trainer(&resumed, resume_opts);
  auto stats = resumed_trainer.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epochs.size(), 3u);  // Epochs 5..7 only.
  EXPECT_EQ(nn::SerializeParameters(&resumed.net_), ref_params);
  // Whole-run bookkeeping spans the pre-kill epochs too.
  EXPECT_EQ(resumed_trainer.epochs_run(), ref_trainer.epochs_run());
  EXPECT_DOUBLE_EQ(resumed_trainer.best_metric(), ref_trainer.best_metric());
  EXPECT_EQ(resumed_trainer.metric_history(), ref_trainer.metric_history());
}

TEST(CheckpointTest, FinishedCheckpointResumesAsPureReload) {
  const std::string path = TempPath("sdea_ckpt_finished.ckpt");
  std::remove(path.c_str());

  WalkTask first(/*seed=*/7);
  CheckpointManager mgr(path);
  TrainerOptions opts = WalkOptions();
  opts.checkpoint = &mgr;
  Trainer first_trainer(&first, opts);
  ASSERT_TRUE(first_trainer.Run().ok());
  const std::string final_params = nn::SerializeParameters(&first.net_);

  WalkTask second(/*seed=*/7);
  CheckpointManager mgr2(path);
  TrainerOptions opts2 = WalkOptions();
  opts2.checkpoint = &mgr2;
  Trainer second_trainer(&second, opts2);
  auto stats = second_trainer.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->epochs.empty());  // No epoch re-executed.
  EXPECT_EQ(nn::SerializeParameters(&second.net_), final_params);
  EXPECT_EQ(second_trainer.epochs_run(), first_trainer.epochs_run());
  EXPECT_EQ(second_trainer.metric_history(),
            first_trainer.metric_history());
}

TEST(CheckpointTest, ResumeValidatesBeforeMutating) {
  const std::string path = TempPath("sdea_ckpt_mismatch.ckpt");
  std::remove(path.c_str());
  WalkTask task(/*seed=*/3);
  const std::string before = nn::SerializeParameters(&task.net_);

  // Checkpoint whose example order belongs to a different dataset size.
  TrainerCheckpoint ckpt;
  ckpt.order = {0, 1, 2};  // Task has 6 examples.
  ckpt.rng = task.rng()->SaveState();
  ckpt.params = before;
  CheckpointManager mgr(path);
  ASSERT_TRUE(mgr.Save(ckpt).ok());
  TrainerOptions opts = WalkOptions();
  opts.checkpoint = &mgr;
  EXPECT_EQ(Trainer(&task, opts).Run().status().code(),
            StatusCode::kInvalidArgument);

  // Checkpoint whose parameter blob has the wrong shape: rejected by the
  // validate-before-mutate deserialization, task untouched.
  WalkNet other(/*dim=*/16);
  ckpt.order = {0, 1, 2, 3, 4, 5};
  ckpt.params = nn::SerializeParameters(&other);
  ASSERT_TRUE(mgr.Save(ckpt).ok());
  EXPECT_EQ(Trainer(&task, opts).Run().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(nn::SerializeParameters(&task.net_), before);

  // Checkpoints with valid, different parameters but a broken optimizer
  // blob: cut in half, or with junk after a complete state. Neither the
  // parameters nor the optimizer may change.
  WalkNet donor;
  for (int64_t i = 0; i < donor.w->value.size(); ++i) {
    donor.w->value[i] = 0.25f * static_cast<float>(i + 1);
    donor.w->grad[i] = 1.0f;
  }
  nn::Adam donor_adam(donor.Parameters(), 0.05f);
  donor_adam.Step();
  std::string donor_state;
  donor_adam.SerializeState(&donor_state);
  std::string task_state;
  task.optimizer_->SerializeState(&task_state);
  ckpt.params = nn::SerializeParameters(&donor);
  ASSERT_NE(ckpt.params, before);
  for (const std::string& broken :
       {donor_state.substr(0, donor_state.size() / 2),
        donor_state + "junk"}) {
    ckpt.optimizer = broken;
    ASSERT_TRUE(mgr.Save(ckpt).ok());
    EXPECT_EQ(Trainer(&task, opts).Run().status().code(),
              StatusCode::kInvalidArgument)
        << "optimizer blob of " << broken.size() << " bytes";
    EXPECT_EQ(nn::SerializeParameters(&task.net_), before);
    std::string state;
    task.optimizer_->SerializeState(&state);
    EXPECT_EQ(state, task_state);
  }

  // A best-params blob of the wrong shape fails at resume, before any
  // epoch runs, rather than after the run has trained to the end (no
  // resumed epoch beats this best metric, so the blob is never replaced).
  ckpt.optimizer.clear();
  ckpt.epochs_run = 3;
  ckpt.best_metric = 1e30;
  ckpt.best_params = nn::SerializeParameters(&other);
  ASSERT_TRUE(mgr.Save(ckpt).ok());
  int epochs_seen = 0;
  opts.on_epoch = [&](const EpochStats&) {
    ++epochs_seen;
    return true;
  };
  EXPECT_EQ(Trainer(&task, opts).Run().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(epochs_seen, 0);
  EXPECT_EQ(nn::SerializeParameters(&task.net_), before);
}

}  // namespace
}  // namespace sdea::train
