#include "core/unsupervised.h"

#include <algorithm>
#include <map>

#include "base/rng.h"

namespace sdea::core {

std::vector<std::pair<int64_t, int64_t>> MutualNearestPairs(
    const Tensor& scores) {
  const int64_t n1 = scores.dim(0), n2 = scores.dim(1);
  std::vector<std::pair<int64_t, int64_t>> out;
  if (n1 == 0 || n2 == 0) return out;
  std::vector<int64_t> best_for_tgt(static_cast<size_t>(n2), 0);
  for (int64_t j = 0; j < n2; ++j) {
    int64_t& arg = best_for_tgt[static_cast<size_t>(j)];
    for (int64_t i = 1; i < n1; ++i) {
      if (scores[i * n2 + j] > scores[arg * n2 + j]) arg = i;
    }
  }
  for (int64_t i = 0; i < n1; ++i) {
    const int64_t arg = tmath::ArgMaxRow(scores.data() + i * n2, n2);
    if (best_for_tgt[static_cast<size_t>(arg)] == i) out.emplace_back(i, arg);
  }
  return out;
}

Result<PseudoSeeds> MinePseudoSeeds(
    const kg::KnowledgeGraph& kg1, const kg::KnowledgeGraph& kg2,
    const AttributeModuleConfig& attr_config,
    const UnsupervisedOptions& options,
    const std::vector<std::string>& pretrain_corpus) {
  // Un-fine-tuned attribute embeddings: tokenizer + co-occurrence
  // pre-training only — no labels touch this stage.
  AttributeEmbeddingModule module;
  SDEA_RETURN_IF_ERROR(module.Init(kg1, kg2, attr_config, pretrain_corpus));
  Tensor e1 = module.ComputeAllEmbeddings(1);
  Tensor e2 = module.ComputeAllEmbeddings(2);
  tmath::L2NormalizeRowsInPlace(&e1);
  tmath::L2NormalizeRowsInPlace(&e2);
  const Tensor scores = tmath::MatmulTransposeB(e1, e2);
  const int64_t n1 = scores.dim(0), n2 = scores.dim(1);

  PseudoSeeds out;
  out.candidates_considered = n1;
  // Mutual nearest neighbors above the similarity floor, collected as
  // (similarity, pair) and sorted most confident first.
  std::vector<std::pair<float, std::pair<kg::EntityId, kg::EntityId>>>
      accepted;
  for (const auto& [i, j] : MutualNearestPairs(scores)) {
    const float sim = scores[i * n2 + j];
    if (sim < options.min_similarity) continue;
    accepted.emplace_back(sim,
                          std::make_pair(static_cast<kg::EntityId>(i),
                                         static_cast<kg::EntityId>(j)));
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (options.max_pairs > 0 &&
      static_cast<int64_t>(accepted.size()) > options.max_pairs) {
    accepted.resize(static_cast<size_t>(options.max_pairs));
  }
  out.accepted = static_cast<int64_t>(accepted.size());

  std::vector<std::pair<kg::EntityId, kg::EntityId>> pairs;
  pairs.reserve(accepted.size());
  for (const auto& [sim, pair] : accepted) pairs.push_back(pair);
  Rng rng(options.seed);
  rng.Shuffle(&pairs);
  const size_t n_valid = static_cast<size_t>(
      static_cast<double>(pairs.size()) * options.valid_fraction);
  out.seeds.valid.assign(pairs.begin(),
                         pairs.begin() + static_cast<int64_t>(n_valid));
  out.seeds.train.assign(pairs.begin() + static_cast<int64_t>(n_valid),
                         pairs.end());
  return out;
}

double PseudoSeedPrecision(
    const PseudoSeeds& pseudo,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>&
        ground_truth) {
  std::map<kg::EntityId, kg::EntityId> gold(ground_truth.begin(),
                                            ground_truth.end());
  int64_t correct = 0, total = 0;
  for (const auto* split : {&pseudo.seeds.train, &pseudo.seeds.valid}) {
    for (const auto& [a, b] : *split) {
      ++total;
      auto it = gold.find(a);
      if (it != gold.end() && it->second == b) ++correct;
    }
  }
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(correct) /
                          static_cast<double>(total);
}

}  // namespace sdea::core
