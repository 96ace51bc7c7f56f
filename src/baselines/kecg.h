#ifndef SDEA_BASELINES_KECG_H_
#define SDEA_BASELINES_KECG_H_

#include <string>

#include "baselines/aligner_interface.h"
#include "baselines/transe.h"

namespace sdea::baselines {

/// KECG-lite (Li et al., EMNLP'19): semi-supervised joint training of a
/// knowledge-embedding model (TransE over the union graph) and a
/// cross-graph attention model (the stop-gradient-attention GCN) on a
/// SHARED entity table. Each round alternates hand-rolled TransE SGD
/// epochs with full-batch attention-GNN margin steps, so the structural
/// signal and the seed-anchored cross-graph signal regularize each other.
class Kecg : public EntityAligner {
 public:
  struct Config {
    int64_t dim = 48;
    TransEConfig transe;        ///< Epochs here = per-round TransE epochs.
    int64_t rounds = 4;         ///< Alternation rounds.
    int64_t gnn_steps_per_round = 20;
    float gnn_lr = 0.01f;
    float margin = 1.0f;
    int64_t negatives = 5;
    uint64_t seed = 59;
  };

  explicit Kecg(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "KECG"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_KECG_H_
