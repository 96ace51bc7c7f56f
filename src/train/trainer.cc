#include "train/trainer.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "base/check.h"
#include "base/logging.h"
#include "nn/serialization.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace sdea::train {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Registry twins of the per-run TrainStats, so dashboards and the
// Prometheus exporter see training progress across every Trainer in the
// process. Handles resolve once; recording is gated on obs::Enabled() so
// the disabled hot path costs one relaxed load per batch.
struct TrainerMetrics {
  obs::Counter* epochs;
  obs::Counter* batches;
  obs::Counter* examples;
  obs::HistogramCell* batch_loss;
  obs::HistogramCell* batch_ms;

  static const TrainerMetrics& Get() {
    static const TrainerMetrics m = [] {
      obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
      TrainerMetrics out;
      out.epochs = reg->GetCounter("train.epochs");
      out.batches = reg->GetCounter("train.batches");
      out.examples = reg->GetCounter("train.examples");
      out.batch_loss = reg->GetHistogram(
          "train.batch_loss", MakeLossHistogram().upper_bounds());
      out.batch_ms = reg->GetHistogram(
          "train.batch_ms", MakeBatchLatencyHistogram().upper_bounds());
      return out;
    }();
    return m;
  }
};

}  // namespace

Trainer::Trainer(TrainTask* task, TrainerOptions options)
    : task_(task), options_(std::move(options)) {}

Status Trainer::Validate() const {
  if (task_ == nullptr) return Status::InvalidArgument("task must not be null");
  if (task_->num_examples() == 0) {
    return Status::InvalidArgument("task has no training examples");
  }
  if (options_.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be > 0");
  }
  if (options_.max_epochs < 0) {
    return Status::InvalidArgument("max_epochs must be >= 0");
  }
  if (options_.patience > 0 && !options_.evaluate) {
    return Status::InvalidArgument("patience requires evaluate");
  }
  if (options_.restore_best && !options_.evaluate) {
    return Status::InvalidArgument("restore_best requires evaluate");
  }
  if (options_.restore_best && task_->module() == nullptr) {
    return Status::FailedPrecondition(
        "restore_best requires a task with a module()");
  }
  if (options_.checkpoint != nullptr && task_->module() == nullptr) {
    return Status::FailedPrecondition(
        "checkpointing requires a task with a module()");
  }
  return Status::Ok();
}

TrainerCheckpoint Trainer::MakeCheckpoint(int64_t next_epoch,
                                          bool finished) const {
  TrainerCheckpoint ckpt;
  ckpt.next_epoch = next_epoch;
  ckpt.epochs_run = epochs_run_;
  ckpt.best_metric = best_metric_;
  ckpt.since_best = since_best_;
  ckpt.metric_history = metric_history_;
  ckpt.order = order_;
  ckpt.rng = task_->rng()->SaveState();
  ckpt.params = nn::SerializeParameters(task_->module());
  ckpt.best_params = best_params_;
  if (task_->optimizer() != nullptr) {
    task_->optimizer()->SerializeState(&ckpt.optimizer);
  }
  ckpt.finished = finished;
  return ckpt;
}

Status Trainer::ApplyCheckpoint(const TrainerCheckpoint& ckpt) {
  if (ckpt.order.size() != task_->num_examples()) {
    return Status::InvalidArgument(
        "checkpoint order size does not match the task's example count");
  }
  // Validate-before-mutate: both parameter blobs are checked against the
  // module, then the optimizer state is restored (all-or-nothing), and
  // only then are the parameters copied. A stale checkpoint from a
  // different model shape, or a broken optimizer blob, leaves the task
  // unmodified; a broken best-params blob fails here, not after the
  // resumed run has trained every remaining epoch.
  SDEA_RETURN_IF_ERROR(nn::CheckParameters(task_->module(), ckpt.params));
  if (!ckpt.best_params.empty()) {
    SDEA_RETURN_IF_ERROR(
        nn::CheckParameters(task_->module(), ckpt.best_params));
  }
  if (task_->optimizer() != nullptr && !ckpt.optimizer.empty()) {
    SDEA_RETURN_IF_ERROR(task_->optimizer()->DeserializeState(ckpt.optimizer));
  }
  SDEA_RETURN_IF_ERROR(
      nn::DeserializeParameters(task_->module(), ckpt.params));
  task_->rng()->LoadState(ckpt.rng);
  order_ = ckpt.order;
  epochs_run_ = ckpt.epochs_run;
  best_metric_ = ckpt.best_metric;
  since_best_ = ckpt.since_best;
  metric_history_ = ckpt.metric_history;
  best_params_ = ckpt.best_params;
  return Status::Ok();
}

Result<TrainStats> Trainer::Run() {
  SDEA_RETURN_IF_ERROR(Validate());
  const auto run_t0 = std::chrono::steady_clock::now();

  const size_t n = task_->num_examples();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), uint64_t{0});
  epochs_run_ = 0;
  best_metric_ = 0.0;
  since_best_ = 0;
  metric_history_.clear();
  best_params_.clear();

  TrainStats stats;
  int64_t start_epoch = 0;

  if (options_.checkpoint != nullptr && options_.checkpoint->Exists()) {
    SDEA_ASSIGN_OR_RETURN(TrainerCheckpoint ckpt,
                          options_.checkpoint->Load());
    SDEA_RETURN_IF_ERROR(ApplyCheckpoint(ckpt));
    if (ckpt.finished) {
      // The saved params already reflect any best-restore; nothing to run.
      stats.total_wall_ms = MsSince(run_t0);
      return stats;
    }
    start_epoch = ckpt.next_epoch;
  } else if (options_.restore_best) {
    // Legacy loops snapshot the initial parameters before the first epoch,
    // so a zero-epoch run restores exactly what it started with.
    best_params_ = nn::SerializeParameters(task_->module());
  }

  const auto batch = static_cast<size_t>(options_.batch_size);
  bool stop = false;
  int64_t epoch = start_epoch;
  for (; epoch < options_.max_epochs && !stop; ++epoch) {
    obs::TraceSpan epoch_span("train/epoch");
    const auto epoch_t0 = std::chrono::steady_clock::now();
    EpochStats es;
    es.epoch = epoch;

    task_->OnEpochBegin(epoch);
    if (options_.shuffle == TrainerOptions::Shuffle::kFreshPerEpoch) {
      std::iota(order_.begin(), order_.end(), uint64_t{0});
    }
    if (options_.shuffle != TrainerOptions::Shuffle::kNone) {
      task_->rng()->Shuffle(&order_);
    }

    for (size_t start = 0; start < n; start += batch) {
      const size_t len = std::min(batch, n - start);
      const auto batch_t0 = std::chrono::steady_clock::now();
      const float loss = task_->TrainBatch(order_.data() + start, len);
      const double ms = MsSince(batch_t0);
      stats.batch_ms.Record(ms);
      stats.batch_loss.Record(loss);
      if (obs::Enabled()) {
        const TrainerMetrics& m = TrainerMetrics::Get();
        m.batch_ms->Record(ms);
        m.batch_loss->Record(loss);
        m.batches->Increment();
        m.examples->Increment(len);
      }
      es.loss_sum += loss;
      ++es.num_batches;
      es.num_examples += static_cast<int64_t>(len);
    }
    task_->OnEpochEnd(epoch);
    if (obs::Enabled()) TrainerMetrics::Get().epochs->Increment();

    if (options_.evaluate) {
      obs::TraceSpan eval_span("train/eval");
      const double metric = task_->EvalMetric();
      metric_history_.push_back(metric);
      ++epochs_run_;
      es.has_eval = true;
      es.eval_metric = metric;
      // Legacy early-stopping bookkeeping, bit for bit: the first evaluated
      // epoch always becomes the best; `patience` consecutive
      // non-improving epochs end the run.
      if (metric > best_metric_ || epochs_run_ == 1) {
        best_metric_ = metric;
        if (options_.restore_best) {
          best_params_ = nn::SerializeParameters(task_->module());
        }
        since_best_ = 0;
      } else if (options_.patience > 0 && ++since_best_ >= options_.patience) {
        stop = true;
      }
    }

    es.wall_ms = MsSince(epoch_t0);
    stats.epochs.push_back(es);
    if (options_.on_epoch && !options_.on_epoch(es)) stop = true;

    if (options_.checkpoint != nullptr && !stop &&
        epoch + 1 < options_.max_epochs) {
      obs::TraceSpan ckpt_span("train/checkpoint");
      // A failed save (full disk, dead mount) costs a resume point, not
      // the run: log it and keep training. The atomic writer guarantees
      // the previous checkpoint on disk is still complete.
      const Status saved =
          options_.checkpoint->Save(MakeCheckpoint(epoch + 1, false));
      if (!saved.ok()) {
        ++stats.checkpoint_failures;
        SDEA_LOG_WARNING("checkpoint save failed, training continues: " +
                         saved.ToString());
      }
    }
  }

  if (options_.restore_best && !best_params_.empty()) {
    SDEA_RETURN_IF_ERROR(
        nn::DeserializeParameters(task_->module(), best_params_));
  }
  if (options_.checkpoint != nullptr) {
    // Final save is marked finished and records the post-restore params, so
    // resuming a completed run is a pure state reload. Like the periodic
    // saves, a failure here must not discard the completed training run —
    // the trained parameters live in the task, not the checkpoint.
    const Status saved = options_.checkpoint->Save(MakeCheckpoint(
        /*next_epoch=*/epoch, /*finished=*/true));
    if (!saved.ok()) {
      ++stats.checkpoint_failures;
      SDEA_LOG_WARNING("final checkpoint save failed: " + saved.ToString());
    }
  }

  stats.total_wall_ms = MsSince(run_t0);
  return stats;
}

}  // namespace sdea::train
