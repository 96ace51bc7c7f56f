#ifndef SDEA_CORE_SDEA_H_
#define SDEA_CORE_SDEA_H_

#include <memory>
#include <vector>

#include "core/attribute_embedding.h"
#include "core/relation_embedding.h"
#include "eval/metrics.h"

namespace sdea::core {

/// End-to-end configuration of SDEA.
struct SdeaConfig {
  AttributeModuleConfig attribute;
  RelationModuleConfig relation;
  /// When false, runs the paper's "SDEA w/o rel." ablation: the final
  /// entity embedding is the attribute embedding alone.
  bool use_relation_module = true;
};

/// Combined training report.
struct SdeaFitReport {
  TrainReport attribute;
  TrainReport relation;
};

/// Runtime options of one Fit call (as opposed to model hyper-parameters,
/// which live in SdeaConfig).
struct SdeaFitOptions {
  /// When non-empty, both training phases checkpoint into this (existing)
  /// directory — <dir>/attribute.ckpt and <dir>/relation.ckpt — after
  /// every epoch, and a re-run Fit resumes from whatever phase/epoch was
  /// reached, continuing bitwise-identically with the uninterrupted run.
  std::string checkpoint_dir;
};

/// The full SDEA pipeline (Fig. 3): attribute embedding pre-training
/// (Algorithm 2), relation + joint training (Algorithm 3), and cosine
/// alignment over the final entity embeddings Hent = [Hr; Ha; Hm].
class SdeaModel {
 public:
  SdeaModel() = default;

  /// Runs the two-phase training on the KG pair with the given seed
  /// alignment. After a successful Fit the final embeddings are available.
  /// `pretrain_corpus` optionally supplies LM-pre-training text (see
  /// GeneratedBenchmark::pretrain_corpus).
  Result<SdeaFitReport> Fit(const kg::KnowledgeGraph& kg1,
                            const kg::KnowledgeGraph& kg2,
                            const kg::AlignmentSeeds& seeds,
                            const SdeaConfig& config,
                            const std::vector<std::string>& pretrain_corpus = {},
                            const SdeaFitOptions& options = {});

  /// Final entity embeddings of each side ([N, D]); valid after Fit.
  const Tensor& embeddings1() const { return ent1_; }
  const Tensor& embeddings2() const { return ent2_; }

  /// The pre-trained attribute embeddings Ha alone — the "SDEA w/o rel."
  /// ablation — available from the same Fit at no extra cost.
  const Tensor& attribute_embeddings1() const { return ha1_; }
  const Tensor& attribute_embeddings2() const { return ha2_; }

  /// Hits@K / MRR of `pairs` using the attribute embeddings only.
  eval::RankingMetrics EvaluateWithoutRelation(
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const;

  /// Hits@K / MRR of `pairs` (typically the test split), ranking every
  /// KG2 entity as a candidate target (the paper does not assume 1-1
  /// alignment, so the whole target space competes).
  eval::RankingMetrics Evaluate(
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const;

  /// Per-degree-bucket metrics for the long-tail analysis; `kg1` must be
  /// the graph passed to Fit.
  std::vector<eval::RankingMetrics> EvaluateByDegree(
      const kg::KnowledgeGraph& kg1,
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
      const std::vector<int64_t>& bucket_upper) const;

  const AttributeEmbeddingModule& attribute_module() const {
    return attribute_module_;
  }
  const RelationEmbeddingModule& relation_module() const {
    return relation_module_;
  }

 private:
  AttributeEmbeddingModule attribute_module_;
  RelationEmbeddingModule relation_module_;
  Tensor ha1_;
  Tensor ha2_;
  Tensor ent1_;
  Tensor ent2_;
  bool fitted_ = false;
};

}  // namespace sdea::core

#endif  // SDEA_CORE_SDEA_H_
