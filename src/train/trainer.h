#ifndef SDEA_TRAIN_TRAINER_H_
#define SDEA_TRAIN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "train/checkpoint.h"
#include "train/stats.h"

namespace sdea::train {

/// A model-specific training task the Trainer can drive. The task owns its
/// model, optimizer, data, and RNG; the Trainer owns the loop: epoch order,
/// shuffling, batching, evaluation cadence, early stopping, stats, and
/// checkpointing.
///
/// Determinism contract: TrainBatch must draw any randomness (e.g. negative
/// sampling) from rng(), the same generator the Trainer uses for shuffling.
/// That makes the whole RNG stream a pure function of (seed, epoch order),
/// which is what lets a checkpoint resume bitwise-identically and what the
/// golden tests against the legacy loops rely on.
class TrainTask {
 public:
  virtual ~TrainTask() = default;

  /// Number of training examples; indices in [0, num_examples()) are what
  /// TrainBatch receives.
  virtual size_t num_examples() const = 0;

  /// The task's RNG. The Trainer shuffles with it; TrainBatch samples
  /// negatives from it. Never null.
  virtual Rng* rng() = 0;

  /// Runs forward/backward/update on the examples named by `ids` (indices
  /// into the task's example array, already shuffled by the Trainer).
  /// Returns the batch loss (0 if the task has no meaningful scalar loss).
  virtual float TrainBatch(const uint64_t* ids, size_t n) = 0;

  /// Hooks around each epoch (e.g. renormalize embeddings after updates).
  virtual void OnEpochBegin(int64_t epoch) { (void)epoch; }
  virtual void OnEpochEnd(int64_t epoch) { (void)epoch; }

  /// Dev metric, higher is better (e.g. validation Hits@1). Called once per
  /// epoch when TrainerOptions::evaluate is set.
  virtual double EvalMetric() { return 0.0; }

  /// The trainable module, for checkpointing and best-params restore.
  /// May be null for tasks with hand-rolled parameters (then checkpointing
  /// and restore_best are unavailable).
  virtual nn::Module* module() { return nullptr; }

  /// The optimizer, for optimizer-state checkpointing. May be null.
  virtual nn::Optimizer* optimizer() { return nullptr; }
};

struct TrainerOptions {
  int64_t max_epochs = 1;
  int64_t batch_size = 1;

  /// How the example order evolves across epochs. kFreshPerEpoch resets to
  /// identity before each shuffle (TransE's loop); kCumulative keeps
  /// shuffling the previous order (TransEdge and the SDEA modules — their
  /// legacy loops shuffled the data vector in place, which composes
  /// permutations the same way).
  enum class Shuffle { kNone, kFreshPerEpoch, kCumulative };
  Shuffle shuffle = Shuffle::kFreshPerEpoch;

  /// Evaluate task->EvalMetric() after every epoch and track the best.
  bool evaluate = false;

  /// With evaluate: epochs without improvement before stopping, exactly the
  /// legacy bookkeeping (first evaluated epoch always becomes the best;
  /// the run stops once `patience` consecutive epochs fail to improve).
  /// <= 0 disables early stopping while still tracking the best metric.
  int64_t patience = 0;

  /// With evaluate: restore the module parameters from the best evaluated
  /// epoch after the loop. Requires task->module().
  bool restore_best = false;

  /// Atomic checkpointing after every epoch and at the end. Borrowed;
  /// null disables. Requires task->module(). When checkpoint->path()
  /// exists the run resumes from it; a checkpoint marked finished restores
  /// the final state and returns without training.
  CheckpointManager* checkpoint = nullptr;

  /// Called after each epoch (post-eval). Return false to stop training —
  /// the hook for progress logging, external snapshot publishing, or
  /// custom stopping rules.
  std::function<bool(const EpochStats&)> on_epoch;
};

/// The unified minibatch training driver. One Run() call replaces the
/// hand-rolled epoch loops that used to live in each baseline and SDEA
/// module: deterministic shuffled batching, per-epoch eval with legacy
/// early-stopping semantics, best-params restore, atomic checkpoint/resume
/// (bitwise-identical continuation), and loss/latency stats.
class Trainer {
 public:
  Trainer(TrainTask* task, TrainerOptions options);

  /// Runs the loop to completion (max_epochs, early stop, or callback
  /// stop). Returns accumulated stats, or InvalidArgument for inconsistent
  /// options / FailedPrecondition for option-task mismatches.
  Result<TrainStats> Run();

  /// Evaluation bookkeeping after Run(). Unlike the returned TrainStats,
  /// these span the *whole* run including epochs executed before a
  /// checkpoint resume.
  int64_t epochs_run() const { return epochs_run_; }
  double best_metric() const { return best_metric_; }
  const std::vector<double>& metric_history() const {
    return metric_history_;
  }

 private:
  Status Validate() const;
  TrainerCheckpoint MakeCheckpoint(int64_t next_epoch, bool finished) const;
  Status ApplyCheckpoint(const TrainerCheckpoint& ckpt);

  TrainTask* task_;
  TrainerOptions options_;

  // Loop state (also what gets checkpointed).
  std::vector<uint64_t> order_;
  int64_t epochs_run_ = 0;
  double best_metric_ = 0.0;
  int64_t since_best_ = 0;
  std::vector<double> metric_history_;
  std::string best_params_;
};

}  // namespace sdea::train

#endif  // SDEA_TRAIN_TRAINER_H_
