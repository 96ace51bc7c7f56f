#include "baselines/cea.h"

#include <cmath>

#include "base/strings.h"
#include "baselines/union_graph.h"
#include "core/stable_matching.h"
#include "text/pretrain.h"
#include "text/tokenizer.h"

namespace sdea::baselines {

Status Cea::Fit(const AlignInput& input) {
  // Channel 1: structural GCN embeddings.
  GcnAlign gcn(config_.gcn);
  SDEA_RETURN_IF_ERROR(gcn.Fit(input));
  emb1_ = gcn.embeddings1();
  emb2_ = gcn.embeddings2();

  const std::vector<std::string> names1 = EntityNames(input.kg1);
  const std::vector<std::string> names2 = EntityNames(input.kg2);
  const int64_t n1 = static_cast<int64_t>(names1.size());
  const int64_t n2 = static_cast<int64_t>(names2.size());

  // Channel 3: the mean of co-occurrence token vectors per name.
  text::SubwordTokenizer tokenizer;
  text::TokenizerConfig tok_cfg;
  tok_cfg.num_merges = 512;
  std::vector<std::string> corpus = names1;
  for (const auto& n : names2) corpus.push_back(n);
  SDEA_RETURN_IF_ERROR(tokenizer.Train(corpus, tok_cfg));
  text::PretrainConfig pre_cfg;
  pre_cfg.dim = config_.semantic_dim;
  pre_cfg.epochs = 5;
  pre_cfg.seed = config_.seed;
  text::CooccurrencePretrainer pretrainer;
  SDEA_ASSIGN_OR_RETURN(Tensor table,
                        pretrainer.Train(corpus, tokenizer, pre_cfg));
  Tensor sem1({n1, config_.semantic_dim});
  Tensor sem2({n2, config_.semantic_dim});
  MeanTokenVectors(names1, tokenizer, table, &sem1);
  MeanTokenVectors(names2, tokenizer, table, &sem2);
  tmath::L2NormalizeRowsInPlace(&sem1);
  tmath::L2NormalizeRowsInPlace(&sem2);

  Tensor s1 = emb1_;
  Tensor s2 = emb2_;
  tmath::L2NormalizeRowsInPlace(&s1);
  tmath::L2NormalizeRowsInPlace(&s2);
  const Tensor struct_scores = tmath::MatmulTransposeB(s1, s2);
  const Tensor sem_scores = tmath::MatmulTransposeB(sem1, sem2);

  // Fused score matrix: structure + string + semantics.
  scores_ = Tensor({n1, n2});
  for (int64_t i = 0; i < n1; ++i) {
    for (int64_t j = 0; j < n2; ++j) {
      const double string_sim = EditSimilarity(names1[static_cast<size_t>(i)],
                                               names2[static_cast<size_t>(j)]);
      scores_[i * n2 + j] = static_cast<float>(
          config_.weight_struct * struct_scores[i * n2 + j] +
          config_.weight_string * string_sim +
          config_.weight_semantic * sem_scores[i * n2 + j]);
    }
  }
  return Status::Ok();
}

eval::RankingMetrics Cea::Evaluate(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  SDEA_CHECK_GT(scores_.size(), 0);
  const int64_t n2 = scores_.dim(1);
  Tensor sub({static_cast<int64_t>(pairs.size()), n2});
  std::vector<int64_t> gold;
  gold.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::copy(scores_.data() + pairs[i].first * n2,
              scores_.data() + (pairs[i].first + 1) * n2,
              sub.data() + static_cast<int64_t>(i) * n2);
    gold.push_back(pairs[i].second);
  }
  return eval::EvaluateFromScores(sub, gold);
}

double Cea::StableHits1(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  SDEA_CHECK_GT(scores_.size(), 0);
  const std::vector<int64_t> match = core::StableMatch(scores_);
  std::vector<int64_t> sub_match, gold;
  for (const auto& [a, b] : pairs) {
    sub_match.push_back(match[static_cast<size_t>(a)]);
    gold.push_back(b);
  }
  return core::MatchingAccuracy(sub_match, gold);
}

}  // namespace sdea::baselines
