#include "baselines/transe_align.h"

#include <algorithm>

#include "base/check.h"
#include "baselines/union_graph.h"

namespace sdea::baselines {
TransEAlign::Config BootEaConfig(TransEConfig transe) {
  TransEAlign::Config c;
  c.transe = std::move(transe);
  c.bootstrap_rounds = 4;
  c.display_name = "BootEA";
  return c;
}

Status TransEAlign::Fit(const AlignInput& input) {
  if (input.kg1 == nullptr || input.kg2 == nullptr ||
      input.seeds == nullptr) {
    return Status::InvalidArgument("TransEAlign: null input");
  }
  const int64_t n1 = input.kg1->num_entities();
  const int64_t n2 = input.kg2->num_entities();
  const int64_t total = n1 + n2;
  const int64_t relations = std::max<int64_t>(
      1, input.kg1->num_relations() + input.kg2->num_relations());

  // Parameter-sharing merge: seed-aligned KG2 entities reuse their KG1
  // partner's embedding slot.
  std::vector<int32_t> merge(static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    merge[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  for (const auto& [a, b] : input.seeds->train) {
    merge[static_cast<size_t>(n1 + b)] = a;
  }

  const std::vector<kg::RelationalTriple> triples =
      UnionTriples(*input.kg1, *input.kg2);
  TransE model(total, relations, config_.transe);
  model.Train(triples, merge);

  auto extract = [&](Tensor* e1, Tensor* e2) {
    const Tensor all = model.EntityEmbeddings(merge);
    *e1 = Tensor({n1, model.dim()});
    *e2 = Tensor({n2, model.dim()});
    std::copy(all.data(), all.data() + n1 * model.dim(), e1->data());
    std::copy(all.data() + n1 * model.dim(),
              all.data() + total * model.dim(), e2->data());
  };
  extract(&emb1_, &emb2_);

  // BootEA-lite rounds: add mutually-nearest, above-threshold pairs as
  // pseudo-seeds, then continue training.
  bootstrapped_pairs_ = 0;
  for (int64_t round = 0; round < config_.bootstrap_rounds; ++round) {
    Tensor s1 = emb1_;
    Tensor s2 = emb2_;
    tmath::L2NormalizeRowsInPlace(&s1);
    tmath::L2NormalizeRowsInPlace(&s2);
    const Tensor scores = tmath::MatmulTransposeB(s1, s2);
    // argmax per row and per column.
    std::vector<int64_t> best_for_src(static_cast<size_t>(n1), -1);
    std::vector<int64_t> best_for_tgt(static_cast<size_t>(n2), -1);
    for (int64_t i = 0; i < n1; ++i) {
      const float* row = scores.data() + i * n2;
      int64_t arg = 0;
      for (int64_t j = 1; j < n2; ++j) {
        if (row[j] > row[arg]) arg = j;
      }
      best_for_src[static_cast<size_t>(i)] = arg;
    }
    for (int64_t j = 0; j < n2; ++j) {
      int64_t arg = 0;
      for (int64_t i = 1; i < n1; ++i) {
        if (scores[i * n2 + j] > scores[arg * n2 + j]) arg = i;
      }
      best_for_tgt[static_cast<size_t>(j)] = arg;
    }
    int64_t added = 0;
    for (int64_t i = 0; i < n1; ++i) {
      const int64_t j = best_for_src[static_cast<size_t>(i)];
      if (j < 0 || best_for_tgt[static_cast<size_t>(j)] != i) continue;
      if (scores[i * n2 + j] < config_.bootstrap_threshold) continue;
      if (merge[static_cast<size_t>(n1 + j)] != n1 + j) continue;  // Taken.
      if (merge[static_cast<size_t>(i)] != i) continue;
      merge[static_cast<size_t>(n1 + j)] = static_cast<int32_t>(i);
      ++added;
    }
    bootstrapped_pairs_ += added;
    if (added == 0) break;
    for (int64_t e = 0; e < config_.epochs_per_round; ++e) {
      model.TrainEpoch(triples, merge);
    }
    extract(&emb1_, &emb2_);
  }
  return Status::Ok();
}

}  // namespace sdea::baselines
