#include "core/sdea.h"

#include "base/logging.h"
#include "base/strings.h"
#include "obs/trace.h"
#include "train/checkpoint.h"

namespace sdea::core {

Result<SdeaFitReport> SdeaModel::Fit(
    const kg::KnowledgeGraph& kg1, const kg::KnowledgeGraph& kg2,
    const kg::AlignmentSeeds& seeds, const SdeaConfig& config,
    const std::vector<std::string>& pretrain_corpus,
    const SdeaFitOptions& options) {
  SdeaFitReport report;
  std::unique_ptr<train::CheckpointManager> attr_ckpt;
  std::unique_ptr<train::CheckpointManager> rel_ckpt;
  if (!options.checkpoint_dir.empty()) {
    attr_ckpt = std::make_unique<train::CheckpointManager>(
        options.checkpoint_dir + "/attribute.ckpt");
    rel_ckpt = std::make_unique<train::CheckpointManager>(
        options.checkpoint_dir + "/relation.ckpt");
  }

  obs::TraceSpan fit_span("sdea/fit");

  // Phase 1: attribute embedding pre-training (Algorithm 2).
  {
    obs::TraceSpan span("sdea/attribute_pretrain");
    SDEA_RETURN_IF_ERROR(
        attribute_module_.Init(kg1, kg2, config.attribute, pretrain_corpus));
    SDEA_ASSIGN_OR_RETURN(report.attribute,
                          attribute_module_.Pretrain(seeds, attr_ckpt.get()));
  }
  {
    obs::TraceSpan span("sdea/attribute_embed");
    ha1_ = attribute_module_.ComputeAllEmbeddings(1);
    ha2_ = attribute_module_.ComputeAllEmbeddings(2);
  }
  SDEA_LOG_INFO(StrFormat("attribute module: %lld epochs, valid H@1=%.2f",
                          static_cast<long long>(report.attribute.epochs_run),
                          report.attribute.best_valid_hits1));

  if (!config.use_relation_module) {
    // "SDEA w/o rel.": the attribute embedding is the entity embedding.
    ent1_ = ha1_;
    ent2_ = ha2_;
    fitted_ = true;
    return report;
  }

  // Phase 2: relation + joint training (Algorithm 3), transformer frozen.
  {
    obs::TraceSpan span("sdea/relation_train");
    SDEA_RETURN_IF_ERROR(relation_module_.Init(
        kg1, kg2, config.attribute.text.out_dim, config.relation));
    SDEA_ASSIGN_OR_RETURN(
        report.relation,
        relation_module_.Train(ha1_, ha2_, seeds, rel_ckpt.get()));
  }
  SDEA_LOG_INFO(StrFormat("relation module: %lld epochs, valid H@1=%.2f",
                          static_cast<long long>(report.relation.epochs_run),
                          report.relation.best_valid_hits1));

  obs::TraceSpan embed_span("sdea/entity_embed");
  ent1_ = relation_module_.ComputeEntityEmbeddings(1, ha1_);
  ent2_ = relation_module_.ComputeEntityEmbeddings(2, ha2_);
  fitted_ = true;
  return report;
}

eval::RankingMetrics SdeaModel::EvaluateWithoutRelation(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  SDEA_CHECK(fitted_);
  return eval::EvaluatePairs(ha1_, ha2_, pairs);
}

eval::RankingMetrics SdeaModel::Evaluate(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  SDEA_CHECK(fitted_);
  return eval::EvaluatePairs(ent1_, ent2_, pairs);
}

std::vector<eval::RankingMetrics> SdeaModel::EvaluateByDegree(
    const kg::KnowledgeGraph& kg1,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
    const std::vector<int64_t>& bucket_upper) const {
  SDEA_CHECK(fitted_);
  const kg::KgSnapshot snap1 = kg1.Snapshot();
  std::vector<int64_t> gold;
  const Tensor src = eval::GatherPairQueries(ent1_, pairs, &gold);
  std::vector<int64_t> degrees;
  degrees.reserve(pairs.size());
  for (const auto& pair : pairs) degrees.push_back(snap1.DegreeOf(pair.first));
  return eval::EvaluateByDegree(src, ent2_, gold, degrees, bucket_upper);
}

}  // namespace sdea::core
