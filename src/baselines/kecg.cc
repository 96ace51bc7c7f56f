#include "baselines/kecg.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "baselines/union_graph.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/sparse.h"

namespace sdea::baselines {
namespace {

// Hand-rolled TransE margin epoch operating directly on the shared entity
// table (so the GNN sees the structural updates and vice versa).
void TransEEpoch(Tensor* entities, Tensor* relations,
                 const std::vector<kg::RelationalTriple>& triples,
                 float lr, float margin, Rng* rng) {
  const int64_t d = entities->dim(1);
  const int64_t n = entities->dim(0);
  for (const kg::RelationalTriple& tr : triples) {
    float* h = entities->data() + tr.head * d;
    float* t = entities->data() + tr.tail * d;
    float* r = relations->data() + tr.relation * d;
    // Corrupt the tail.
    const int64_t neg =
        static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(n)));
    float* tn = entities->data() + neg * d;
    float d_pos = 0.0f, d_neg = 0.0f;
    for (int64_t k = 0; k < d; ++k) {
      const float dp = h[k] + r[k] - t[k];
      const float dn = h[k] + r[k] - tn[k];
      d_pos += dp * dp;
      d_neg += dn * dn;
    }
    if (margin + d_pos - d_neg <= 0.0f) continue;
    for (int64_t k = 0; k < d; ++k) {
      const float gp = 2.0f * (h[k] + r[k] - t[k]);
      const float gn = 2.0f * (h[k] + r[k] - tn[k]);
      h[k] -= lr * (gp - gn);
      r[k] -= lr * (gp - gn);
      t[k] += lr * gp;
      tn[k] -= lr * gn;
    }
  }
}

class GnnHead : public sdea::nn::Module {
 public:
  GnnHead(int64_t d, Rng* rng) {
    const float lim = std::sqrt(6.0f / static_cast<float>(2 * d));
    w_ = AddParameter("kecg.w", Tensor::RandomUniform({d, d}, lim, rng));
  }
  Parameter* w_;
};

}  // namespace

Status Kecg::Fit(const AlignInput& input) {
  const int64_t n1 = input.kg1.num_entities();
  const int64_t n2 = input.kg2.num_entities();
  const int64_t total = n1 + n2;
  const int64_t relations = std::max<int64_t>(
      1, input.kg1.num_relations() + input.kg2.num_relations());
  const int64_t d = config_.dim;

  // Union triples with offset KG2 ids (no seed merging: KECG ties the
  // graphs through the cross-graph loss instead).
  const std::vector<kg::RelationalTriple> triples =
      UnionTriples(input.kg1, input.kg2);
  const CsrMatrix adjacency =
      NormalizedAdjacency(total, UnionEdges(input.kg1, input.kg2));

  Rng rng(config_.seed);
  const float s = 1.0f / std::sqrt(static_cast<float>(d));
  Parameter entity_table("kecg.entity",
                         Tensor::RandomNormal({total, d}, s, &rng));
  Tensor relation_table =
      Tensor::RandomNormal({relations, d}, s, &rng);
  GnnHead head(d, &rng);
  std::vector<Parameter*> gnn_params = head.Parameters();
  gnn_params.push_back(&entity_table);
  sdea::nn::Adam optimizer(gnn_params, config_.gnn_lr);

  for (int64_t round = 0; round < config_.rounds; ++round) {
    // Knowledge-embedding module: TransE epochs on the shared table.
    for (int64_t e = 0; e < config_.transe.epochs; ++e) {
      TransEEpoch(&entity_table.value, &relation_table, triples,
                  config_.transe.lr, config_.transe.margin, &rng);
    }
    tmath::L2NormalizeRowsInPlace(&entity_table.value);
    // Cross-graph module: GCN margin steps on the seed pairs.
    for (int64_t step = 0; step < config_.gnn_steps_per_round; ++step) {
      Graph g;
      NodeId ent = g.Param(&entity_table);
      NodeId hidden = g.L2NormalizeRows(
          g.Matmul(g.SparseMatmul(&adjacency, ent), g.Param(head.w_)));
      std::vector<int64_t> a_ids, p_ids, q_ids;
      for (const auto& [a, b] : input.seeds.train) {
        for (int64_t k = 0; k < config_.negatives; ++k) {
          a_ids.push_back(a);
          p_ids.push_back(n1 + b);
          q_ids.push_back(n1 + static_cast<int64_t>(rng.UniformInt(
                                   static_cast<uint64_t>(n2))));
        }
      }
      NodeId loss = sdea::nn::MarginRankingLoss(
          &g, g.Gather(hidden, a_ids), g.Gather(hidden, p_ids),
          g.Gather(hidden, q_ids), config_.margin);
      optimizer.ZeroGrad();
      g.Backward(loss);
      optimizer.Step();
    }
  }

  // Final embedding: one GNN pass over the co-trained table.
  Graph g;
  std::tie(emb1_, emb2_) = SplitUnion(
      g.Value(g.L2NormalizeRows(
          g.Matmul(g.SparseMatmul(&adjacency, g.Param(&entity_table)),
                   g.Param(head.w_)))),
      n1);
  return Status::Ok();
}

}  // namespace sdea::baselines
