#include "baselines/transe_align.h"

#include <algorithm>
#include <tuple>

#include "baselines/union_graph.h"
#include "core/unsupervised.h"

namespace sdea::baselines {

TransEAlign::Config BootEaConfig(TransEConfig transe) {
  TransEAlign::Config c;
  c.transe = std::move(transe);
  c.bootstrap_rounds = 4;
  c.display_name = "BootEA";
  return c;
}

Status TransEAlign::Fit(const AlignInput& input) {
  const int64_t n1 = input.kg1.num_entities();
  const int64_t n2 = input.kg2.num_entities();
  const int64_t relations = std::max<int64_t>(
      1, input.kg1.num_relations() + input.kg2.num_relations());

  // Parameter-sharing merge: seed-aligned KG2 entities reuse their KG1
  // partner's embedding slot.
  std::vector<int64_t> merge = SeedMerge(n1, n2, input.seeds.train);
  const std::vector<kg::RelationalTriple> triples =
      UnionTriples(input.kg1, input.kg2);
  TransE model(n1 + n2, relations, config_.transe);
  model.Train(triples, merge);
  std::tie(emb1_, emb2_) = SplitUnion(model.raw_entities(), n1, merge);

  // BootEA-lite rounds: add mutually-nearest, above-threshold pairs as
  // pseudo-seeds, then continue training.
  bootstrapped_pairs_ = 0;
  for (int64_t round = 0; round < config_.bootstrap_rounds; ++round) {
    Tensor s1 = emb1_;
    Tensor s2 = emb2_;
    tmath::L2NormalizeRowsInPlace(&s1);
    tmath::L2NormalizeRowsInPlace(&s2);
    const Tensor scores = tmath::MatmulTransposeB(s1, s2);
    int64_t added = 0;
    for (const auto& [i, j] : core::MutualNearestPairs(scores)) {
      if (scores[i * n2 + j] < config_.bootstrap_threshold) continue;
      const size_t tgt = static_cast<size_t>(n1 + j);
      if (merge[tgt] != n1 + j) continue;  // Taken.
      if (merge[static_cast<size_t>(i)] != i) continue;
      merge[tgt] = i;
      ++added;
    }
    bootstrapped_pairs_ += added;
    if (added == 0) break;
    for (int64_t e = 0; e < config_.epochs_per_round; ++e) {
      model.TrainEpoch(triples, merge);
    }
    std::tie(emb1_, emb2_) = SplitUnion(model.raw_entities(), n1, merge);
  }
  return Status::Ok();
}

}  // namespace sdea::baselines
