#include "baselines/aligner_interface.h"

#include "base/check.h"

namespace sdea::baselines {

eval::RankingMetrics EntityAligner::Evaluate(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  SDEA_CHECK_GT(embeddings1().size(), 0);
  return eval::EvaluatePairs(embeddings1(), embeddings2(), pairs);
}

}  // namespace sdea::baselines
