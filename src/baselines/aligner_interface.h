#ifndef SDEA_BASELINES_ALIGNER_INTERFACE_H_
#define SDEA_BASELINES_ALIGNER_INTERFACE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "eval/metrics.h"
#include "kg/knowledge_graph.h"

namespace sdea::baselines {

/// Inputs shared by every alignment method: the KG pair and the seed split.
/// The caller keeps all three alive for the duration of Fit.
struct AlignInput {
  const kg::KnowledgeGraph& kg1;
  const kg::KnowledgeGraph& kg2;
  const kg::AlignmentSeeds& seeds;
};

/// Common interface of the baseline re-implementations (one representative
/// per technique group of the paper's Table II). Fit leaves per-entity
/// embeddings of both KGs in a shared space in `emb1_`/`emb2_`; evaluation
/// ranks all KG2 entities per source by cosine similarity, exactly like
/// SDEA.
class EntityAligner {
 public:
  virtual ~EntityAligner() = default;

  /// Display name used in the result tables.
  virtual std::string name() const = 0;

  /// Trains on the input's train/valid splits.
  virtual Status Fit(const AlignInput& input) = 0;

  const Tensor& embeddings1() const { return emb1_; }
  const Tensor& embeddings2() const { return emb2_; }

  /// Hits@K / MRR over `pairs` against the full KG2 entity space. The
  /// default ranks by cosine over the exposed embeddings; methods that fuse
  /// non-embedding evidence (CEA) override it.
  virtual eval::RankingMetrics Evaluate(
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const;

 protected:
  Tensor emb1_;  ///< [|E1|, d] after Fit.
  Tensor emb2_;  ///< [|E2|, d] after Fit.
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_ALIGNER_INTERFACE_H_
