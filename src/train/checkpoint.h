#ifndef SDEA_TRAIN_CHECKPOINT_H_
#define SDEA_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"
#include "base/status.h"

namespace sdea::train {

/// Everything a Trainer needs to resume a run bitwise-identically:
/// progress counters, early-stopping bookkeeping, the (possibly cumulative)
/// example order, the task RNG state, and the serialized parameter /
/// best-parameter / optimizer blobs. Plain value type; the wire format is
/// an implementation detail of CheckpointManager.
struct TrainerCheckpoint {
  int64_t next_epoch = 0;   ///< First epoch the resumed run should execute.
  int64_t epochs_run = 0;   ///< Epochs completed so far (for best-init).
  double best_metric = 0.0;
  int64_t since_best = 0;
  std::vector<double> metric_history;  ///< One dev metric per eval'd epoch.
  std::vector<uint64_t> order;         ///< Example permutation at save time.
  RngState rng;
  std::string params;       ///< nn::SerializeParameters blob.
  std::string best_params;  ///< Snapshot at the best dev metric (may be "").
  std::string optimizer;    ///< Optimizer::SerializeState blob.
  bool finished = false;    ///< Run completed (early stop or max_epochs).
};

/// Saves/loads TrainerCheckpoints as one self-contained file. Save writes
/// through base::WriteStringToFileAtomic (temp + rename), so the file on
/// disk is always a complete checkpoint — either the previous one or the
/// new one, never a torn mix — and a kill at any point is recoverable.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string path);

  const std::string& path() const { return path_; }

  /// True when a checkpoint file exists at path().
  bool Exists() const;

  Status Save(const TrainerCheckpoint& ckpt) const;

  Result<TrainerCheckpoint> Load() const;

  /// Serialize/parse without touching the filesystem (used by Save/Load and
  /// by tests that corrupt blobs deliberately).
  static std::string Encode(const TrainerCheckpoint& ckpt);
  static Result<TrainerCheckpoint> Decode(std::string_view blob);

 private:
  std::string path_;
};

}  // namespace sdea::train

#endif  // SDEA_TRAIN_CHECKPOINT_H_
