#ifndef SDEA_CORE_MARGIN_ALIGNMENT_H_
#define SDEA_CORE_MARGIN_ALIGNMENT_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "core/train_report.h"
#include "kg/knowledge_graph.h"
#include "nn/optimizer.h"
#include "train/trainer.h"

namespace sdea::core {

/// One update of the margin loss (Eq. 18): stacks the per-triplet [1, d]
/// rows into [B, d] anchors, positives and negatives, takes
/// nn::MarginRankingLoss, then ZeroGrad, Backward, ClipGradNorm(grad_clip)
/// and Step. Returns the batch loss.
float MarginStep(Graph* g, const std::vector<NodeId>& anchors,
                 const std::vector<NodeId>& positives,
                 const std::vector<NodeId>& negatives, float margin,
                 float grad_clip, nn::Optimizer* optimizer);

/// SDEA's fine-tuning as one train::TrainTask. The attribute encoder
/// (Algorithm 2) and the relation module (Algorithm 3) differ only in how
/// they embed an entity and where the candidate negatives come from. For
/// every seed pair (e1, e2) of a batch the task draws a negative from e1's
/// candidates (!= e2; a uniform side-2 entity after 8 misses), embeds the
/// triplet and takes one MarginStep with Adam; after every epoch it scores
/// Hits@1 on seeds.valid (0 without a validation split).
class MarginAlignmentTask final : public train::TrainTask {
 public:
  /// Training-mode [1, d] embedding of entity `e` of `side` (1 or 2). May
  /// draw from `rng`, the task's RNG.
  using EmbedOne =
      std::function<NodeId(Graph* g, int side, kg::EntityId e, Rng* rng)>;
  /// Inference embeddings of every entity of `side`, [N, d].
  using EmbedAll = std::function<Tensor(int side)>;

  /// Trains `module` with Adam at `lr` and an RNG seeded with `rng_seed`.
  /// Every epoch starts by regenerating the `num_candidates` nearest
  /// side-2 entities of each side-1 entity from `embed_all` (Algorithm 2
  /// lines 2-4) unless FixCandidates was called; after the first epoch
  /// those are the embeddings the previous EvalMetric computed, since no
  /// parameter changes in between. Each seed pair is `negatives_per_pair`
  /// examples per epoch: example i is seed pair i % |train|.
  MarginAlignmentTask(nn::Module* module, const kg::AlignmentSeeds* seeds,
                      EmbedOne embed_one, EmbedAll embed_all,
                      uint64_t rng_seed, float lr, float margin,
                      float grad_clip, int64_t num_candidates,
                      int64_t negatives_per_pair);

  /// Algorithm 3 line 1: the candidates come once, from the
  /// `num_candidates` rows of `space2` nearest to each row of `space1`,
  /// and serve every epoch.
  void FixCandidates(const Tensor& space1, const Tensor& space2);

  /// Runs the task on train::Trainer with `options` plus per-epoch
  /// validation, early stopping after `options.patience` epochs without
  /// improvement, and a restore of the best epoch's parameters.
  Result<TrainReport> Train(train::TrainerOptions options);

  size_t num_examples() const override;
  Rng* rng() override { return &rng_; }
  nn::Module* module() override { return module_; }
  nn::Optimizer* optimizer() override { return &optimizer_; }
  void OnEpochBegin(int64_t epoch) override;
  float TrainBatch(const uint64_t* ids, size_t n) override;
  double EvalMetric() override;

 private:
  void SetCandidates(const Tensor& space1, const Tensor& space2);
  kg::EntityId DrawNegative(kg::EntityId e1, kg::EntityId e2);

  nn::Module* module_;
  const kg::AlignmentSeeds* seeds_;
  EmbedOne embed_one_;
  EmbedAll embed_all_;
  Rng rng_;
  nn::Adam optimizer_;
  float margin_;
  float grad_clip_;
  int64_t num_candidates_;
  int64_t negatives_per_pair_;
  bool refresh_candidates_ = true;
  // Both sides' embeddings from the last EvalMetric, kept only while
  // candidates refresh; the next OnEpochBegin moves them out.
  std::optional<std::pair<Tensor, Tensor>> eval_spaces_;
  std::vector<std::vector<int64_t>> candidates_;
  int64_t num_targets_ = 0;
};

}  // namespace sdea::core

#endif  // SDEA_CORE_MARGIN_ALIGNMENT_H_
