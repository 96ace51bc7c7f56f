#include "baselines/hman.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "base/check.h"
#include "baselines/union_graph.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace sdea::baselines {
namespace {

// Hashed relation-name count features over the union entity space: each
// triple counts its relation name on both endpoints.
Tensor RelationFeatures(const kg::KnowledgeGraph& kg1,
                        const kg::KnowledgeGraph& kg2, int64_t dim) {
  const int64_t n1 = kg1.num_entities();
  const int64_t total = n1 + kg2.num_entities();
  Tensor out({total, dim});
  auto fill = [&](const kg::KnowledgeGraph& g, int64_t offset) {
    const kg::KgSnapshot snap = g.Snapshot();
    snap.ForEachRelational([&](int64_t /*row*/, kg::EntityId head,
                               kg::RelationId r, kg::EntityId tail) {
      const size_t h = std::hash<std::string>{}(snap.relation_name(r)) %
                       static_cast<size_t>(dim);
      out[(offset + head) * dim + static_cast<int64_t>(h)] += 1.0f;
      out[(offset + tail) * dim + static_cast<int64_t>(h)] += 1.0f;
    });
  };
  fill(kg1, 0);
  fill(kg2, n1);
  tmath::L2NormalizeRowsInPlace(&out);
  return out;
}

// A one-hidden-layer FNN channel trained full-batch with the margin loss.
class FnnChannel : public sdea::nn::Module {
 public:
  FnnChannel(const std::string& name, int64_t in, int64_t out, Rng* rng) {
    const float l0 = std::sqrt(6.0f / static_cast<float>(in + out));
    w0_ = AddParameter(name + ".w0",
                       Tensor::RandomUniform({in, out}, l0, rng));
    b0_ = AddParameter(name + ".b0", Tensor({out}));
  }

  NodeId Forward(Graph* g, NodeId x) const {
    return g->L2NormalizeRows(g->Tanh(
        g->AddRowBroadcast(g->Matmul(x, g->Param(w0_)), g->Param(b0_))));
  }

 private:
  Parameter* w0_;
  Parameter* b0_;
};

// Trains one FNN channel and returns the union embedding matrix.
Tensor TrainChannel(const Tensor& features, const AlignInput& input,
                    const Hman::Config& cfg, const std::string& name,
                    Rng* rng) {
  const int64_t n1 = input.kg1.num_entities();
  const int64_t n2 = input.kg2.num_entities();
  FnnChannel channel(name, features.dim(1), cfg.channel_dim, rng);
  sdea::nn::Adam optimizer(channel.Parameters(), cfg.lr);
  for (int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    Graph g;
    NodeId all = channel.Forward(&g, g.Input(features));
    std::vector<int64_t> anchor_ids, pos_ids, neg_ids;
    for (const auto& [a, b] : input.seeds.train) {
      for (int64_t k = 0; k < cfg.negatives; ++k) {
        anchor_ids.push_back(a);
        pos_ids.push_back(n1 + b);
        neg_ids.push_back(n1 + static_cast<int64_t>(rng->UniformInt(
                                   static_cast<uint64_t>(n2))));
      }
    }
    NodeId loss = sdea::nn::MarginRankingLoss(
        &g, g.Gather(all, anchor_ids), g.Gather(all, pos_ids),
        g.Gather(all, neg_ids), cfg.margin);
    optimizer.ZeroGrad();
    g.Backward(loss);
    optimizer.Step();
  }
  Graph g;
  return g.Value(channel.Forward(&g, g.Input(features)));
}

// Row i of the result is row i of every part, side by side in order.
Tensor ConcatColumns(std::initializer_list<const Tensor*> parts) {
  const int64_t n = (*parts.begin())->dim(0);
  int64_t d = 0;
  for (const Tensor* part : parts) d += part->dim(1);
  Tensor out({n, d});
  for (int64_t i = 0; i < n; ++i) {
    float* row = out.data() + i * d;
    for (const Tensor* part : parts) {
      const int64_t w = part->dim(1);
      row = std::copy_n(part->data() + i * w, w, row);
    }
  }
  return out;
}

}  // namespace

Status Hman::Fit(const AlignInput& input) {
  const int64_t n1 = input.kg1.num_entities();

  // Channel 1: topology via the structure-only GCN.
  GcnAlign gcn(config_.gcn);
  SDEA_RETURN_IF_ERROR(gcn.Fit(input));

  // Channels 2 & 3: relation / attribute count FNNs.
  Rng rng(config_.seed);
  const Tensor rel_emb = TrainChannel(
      RelationFeatures(input.kg1, input.kg2, config_.feature_dim), input,
      config_, "hman.rel", &rng);
  const Tensor attr_emb = TrainChannel(
      AttributeNameCounts(input.kg1, input.kg2, config_.feature_dim),
      input, config_, "hman.attr", &rng);

  // Concatenate channels per side: the GCN output is per-side already,
  // the FNN outputs are union-indexed.
  const auto [rel1, rel2] = SplitUnion(rel_emb, n1);
  const auto [attr1, attr2] = SplitUnion(attr_emb, n1);
  emb1_ = ConcatColumns({&gcn.embeddings1(), &rel1, &attr1});
  emb2_ = ConcatColumns({&gcn.embeddings2(), &rel2, &attr2});
  return Status::Ok();
}

}  // namespace sdea::baselines
