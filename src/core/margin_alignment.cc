#include "core/margin_alignment.h"

#include <utility>

#include "base/logging.h"
#include "base/strings.h"
#include "core/candidate_generator.h"
#include "eval/metrics.h"
#include "nn/loss.h"

namespace sdea::core {

float MarginStep(Graph* g, const std::vector<NodeId>& anchors,
                 const std::vector<NodeId>& positives,
                 const std::vector<NodeId>& negatives, float margin,
                 float grad_clip, nn::Optimizer* optimizer) {
  const NodeId a = g->StackRows(anchors);
  const NodeId p = g->StackRows(positives);
  const NodeId q = g->StackRows(negatives);
  const NodeId loss = nn::MarginRankingLoss(g, a, p, q, margin);
  optimizer->ZeroGrad();
  g->Backward(loss);
  optimizer->ClipGradNorm(grad_clip);
  optimizer->Step();
  return g->Value(loss).data()[0];
}

MarginAlignmentTask::MarginAlignmentTask(
    nn::Module* module, const kg::AlignmentSeeds* seeds, EmbedOne embed_one,
    EmbedAll embed_all, uint64_t rng_seed, float lr, float margin,
    float grad_clip, int64_t num_candidates, int64_t negatives_per_pair)
    : module_(module),
      seeds_(seeds),
      embed_one_(std::move(embed_one)),
      embed_all_(std::move(embed_all)),
      rng_(rng_seed),
      optimizer_(module->Parameters(), lr),
      margin_(margin),
      grad_clip_(grad_clip),
      num_candidates_(num_candidates),
      negatives_per_pair_(negatives_per_pair) {}

void MarginAlignmentTask::FixCandidates(const Tensor& space1,
                                        const Tensor& space2) {
  SetCandidates(space1, space2);
  refresh_candidates_ = false;
}

void MarginAlignmentTask::SetCandidates(const Tensor& space1,
                                        const Tensor& space2) {
  candidates_ = GenerateCandidates(space1, space2, num_candidates_);
  num_targets_ = space2.dim(0);
}

Result<TrainReport> MarginAlignmentTask::Train(
    train::TrainerOptions options) {
  options.evaluate = true;
  options.restore_best = true;
  options.on_epoch = [](const train::EpochStats& es) {
    SDEA_LOG_DEBUG(StrFormat("margin fine-tuning epoch %lld valid H@1=%.2f",
                             static_cast<long long>(es.epoch),
                             es.eval_metric));
    return true;
  };
  train::Trainer trainer(this, std::move(options));
  const Status run = trainer.Run().status();
  // The last epoch's pair has no next epoch, and restoring the best
  // epoch's parameters left it stale.
  eval_spaces_.reset();
  SDEA_RETURN_IF_ERROR(run);
  TrainReport report;
  report.epochs_run = trainer.epochs_run();
  report.best_valid_hits1 = trainer.best_metric();
  report.valid_hits1_history = trainer.metric_history();
  return report;
}

size_t MarginAlignmentTask::num_examples() const {
  return seeds_->train.size() * static_cast<size_t>(negatives_per_pair_);
}

void MarginAlignmentTask::OnEpochBegin(int64_t /*epoch*/) {
  // Draws no randomness, so the shared RNG stream is the same with fixed
  // and with refreshed candidates.
  if (!refresh_candidates_) return;
  if (eval_spaces_.has_value()) {
    const std::pair<Tensor, Tensor> spaces = std::move(*eval_spaces_);
    eval_spaces_.reset();
    SetCandidates(spaces.first, spaces.second);
    return;
  }
  const Tensor space1 = embed_all_(1);
  const Tensor space2 = embed_all_(2);
  SetCandidates(space1, space2);
}

kg::EntityId MarginAlignmentTask::DrawNegative(kg::EntityId e1,
                                               kg::EntityId e2) {
  const std::vector<int64_t>& cand = candidates_[static_cast<size_t>(e1)];
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto c =
        static_cast<kg::EntityId>(cand[rng_.UniformInt(cand.size())]);
    if (c != e2) return c;
  }
  auto neg = static_cast<kg::EntityId>(
      rng_.UniformInt(static_cast<uint64_t>(num_targets_)));
  if (neg == e2) neg = static_cast<kg::EntityId>((neg + 1) % num_targets_);
  return neg;
}

float MarginAlignmentTask::TrainBatch(const uint64_t* ids, size_t n) {
  const size_t base_n = seeds_->train.size();
  Graph g;
  std::vector<NodeId> anchors, positives, negatives;
  anchors.reserve(n);
  positives.reserve(n);
  negatives.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& [e1, e2] = seeds_->train[ids[i] % base_n];
    const kg::EntityId neg = DrawNegative(e1, e2);
    anchors.push_back(embed_one_(&g, 1, e1, &rng_));
    positives.push_back(embed_one_(&g, 2, e2, &rng_));
    negatives.push_back(embed_one_(&g, 2, neg, &rng_));
  }
  return MarginStep(&g, anchors, positives, negatives, margin_, grad_clip_,
                    &optimizer_);
}

double MarginAlignmentTask::EvalMetric() {
  if (seeds_->valid.empty()) return 0.0;
  Tensor valid1 = embed_all_(1);
  Tensor valid2 = embed_all_(2);
  const double hits1 =
      eval::EvaluatePairs(valid1, valid2, seeds_->valid).hits_at_1;
  if (refresh_candidates_) {
    eval_spaces_.emplace(std::move(valid1), std::move(valid2));
  }
  return hits1;
}

}  // namespace sdea::core
