#include "core/alignment_pipeline.h"

#include <algorithm>

#include "core/stable_matching.h"
#include "core/vector_index.h"
#include "obs/trace.h"

namespace sdea::core {

Result<AlignmentResult> AlignmentPipeline::Run(
    const kg::KnowledgeGraph& kg1, const kg::KnowledgeGraph& kg2,
    const kg::AlignmentSeeds& seeds, const PipelineConfig& config,
    const std::vector<std::string>& pretrain_corpus) {
  obs::TraceSpan run_span("pipeline/run");
  AlignmentResult result;
  {
    obs::TraceSpan fit_span("pipeline/fit");
    SDEA_ASSIGN_OR_RETURN(
        result.fit_report,
        model_.Fit(kg1, kg2, seeds, config.model, pretrain_corpus));
  }
  ran_ = true;

  {
    obs::TraceSpan eval_span("pipeline/evaluate");
    result.test_metrics = model_.Evaluate(seeds.test);
  }

  // Decision layer over cosine similarities.
  obs::TraceSpan decide_span("pipeline/decide");
  Tensor e1 = model_.embeddings1();
  Tensor e2 = model_.embeddings2();
  tmath::L2NormalizeRowsInPlace(&e1);
  tmath::L2NormalizeRowsInPlace(&e2);
  const Tensor scores = tmath::MatmulTransposeB(e1, e2);
  const int64_t n1 = scores.dim(0), n2 = scores.dim(1);

  std::vector<int64_t> match(static_cast<size_t>(n1), kUnmatched);
  if (n2 == 0) {
    // No candidate targets at all: every source abstains (the greedy loop
    // below would otherwise read an empty row and emit target 0).
  } else if (config.use_stable_matching) {
    match = StableMatch(scores);
  } else {
    for (int64_t i = 0; i < n1; ++i) {
      const float* row = scores.data() + i * n2;
      int64_t arg = 0;
      for (int64_t j = 1; j < n2; ++j) {
        if (row[j] > row[arg]) arg = j;
      }
      match[static_cast<size_t>(i)] = arg;
    }
  }

  // The no-match rule, by precedence: an injected calibrated threshold, a
  // dev-calibrated one, then the fixed min_similarity floor (represented
  // as an absolute-only threshold so one code path applies all three —
  // including the NaN-rejects-the-match guarantee).
  if (config.threshold.enabled) {
    result.threshold = config.threshold;
  } else if (config.calibrate_threshold && !seeds.valid.empty() && n2 > 0) {
    std::vector<int64_t> dev_gold;
    const Tensor dev = eval::GatherPairQueries(scores, seeds.valid, &dev_gold);
    result.threshold = eval::CalibrateAbstainThreshold(dev, dev_gold);
  }
  if (!result.threshold.enabled) {
    result.threshold.min_similarity = config.min_similarity;
    result.threshold.enabled = true;
  }
  if (n2 > 0) {
    eval::ApplyAbstainThreshold(scores, result.threshold, &match);
  }

  for (int64_t i = 0; i < n1; ++i) {
    const int64_t j = match[static_cast<size_t>(i)];
    if (j < 0) continue;
    result.pairs.push_back(AlignedPair{static_cast<kg::EntityId>(i),
                                       static_cast<kg::EntityId>(j),
                                       scores[i * n2 + j]});
  }
  result.decisions = std::move(match);

  // Decision accuracy on the held-out test pairs.
  std::vector<int64_t> sub, gold;
  for (const auto& [a, b] : seeds.test) {
    sub.push_back(result.decisions[static_cast<size_t>(a)]);
    gold.push_back(b);
  }
  result.matching_accuracy = MatchingAccuracy(sub, gold);
  result.decision_metrics = eval::EvaluateDecisions(sub, gold);
  return result;
}

std::vector<AlignedPair> AlignmentPipeline::TopTargets(kg::EntityId source,
                                                       int64_t k) const {
  SDEA_CHECK(ran_);
  const Tensor& e1 = model_.embeddings1();
  SDEA_CHECK(source >= 0 && source < e1.dim(0));
  Tensor targets = model_.embeddings2();
  SDEA_CHECK_EQ(targets.dim(1), e1.dim(1));
  tmath::L2NormalizeRowsInPlace(&targets);
  const VectorIndex index(targets.data(), targets.dim(0), targets.dim(1));
  std::vector<AlignedPair> out;
  for (const VectorIndex::Hit& hit :
       index.Search(e1.data() + source * e1.dim(1), k)) {
    out.push_back(AlignedPair{source, static_cast<kg::EntityId>(hit.id),
                              hit.score});
  }
  return out;
}

}  // namespace sdea::core
