#ifndef SDEA_BASELINES_CEA_H_
#define SDEA_BASELINES_CEA_H_

#include <string>
#include <vector>

#include "baselines/aligner_interface.h"
#include "baselines/gcn_align.h"

namespace sdea::baselines {

/// CEA (Zeng et al., ICDE'20): fuses three adaptive feature channels —
/// structural embeddings (GCN), string similarity of entity names
/// (Levenshtein), and semantic name embeddings (averaged pre-trained word
/// vectors; fastText in the original, our co-occurrence vectors here) —
/// into one score matrix. "CEA (Emb)" ranks by the fused scores;
/// `StableHits1` applies the Gale–Shapley post-pass of the full CEA (1-1
/// matching, Hits@1 only, as in the paper's tables).
class Cea : public EntityAligner {
 public:
  struct Config {
    GcnAlign::Config gcn = GcnConfig();
    double weight_struct = 0.3;
    double weight_string = 0.4;
    double weight_semantic = 0.3;
    int64_t semantic_dim = 32;
    uint64_t seed = 29;
  };

  explicit Cea(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "CEA (Emb)"; }
  /// Leaves the structural GCN embeddings in embeddings1()/embeddings2().
  Status Fit(const AlignInput& input) override;

  /// Ranks by the fused score matrix.
  eval::RankingMetrics Evaluate(
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs)
      const override;

  /// Full CEA: stable matching over the fused scores; returns Hits@1 (%).
  double StableHits1(
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const;

  /// The fused [N1, N2] score matrix (valid after Fit).
  const Tensor& fused_scores() const { return scores_; }

 private:
  Config config_;
  Tensor scores_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_CEA_H_
