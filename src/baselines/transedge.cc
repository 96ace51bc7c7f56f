#include "baselines/transedge.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "base/rng.h"
#include "baselines/union_graph.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "train/sampler.h"
#include "train/trainer.h"

namespace sdea::baselines {
namespace {

// Trainable state: joint entity/relation tables + the context projection.
class TransEdgeNet : public sdea::nn::Module {
 public:
  TransEdgeNet(int64_t entities, int64_t relations, int64_t d, Rng* rng) {
    const float s = 1.0f / std::sqrt(static_cast<float>(d));
    entity_ = AddParameter("te.entity",
                           Tensor::RandomNormal({entities, d}, s, rng));
    relation_ = AddParameter("te.relation",
                             Tensor::RandomNormal({relations, d}, s, rng));
    const float lim = std::sqrt(6.0f / static_cast<float>(3 * d));
    w_ = AddParameter("te.w", Tensor::RandomUniform({2 * d, d}, lim, rng));
    b_ = AddParameter("te.b", Tensor({d}));
  }

  Parameter* entity_;
  Parameter* relation_;
  Parameter* w_;
  Parameter* b_;
};

struct Triple {
  int64_t h, r, t;
};

// One minibatch of TransEdge: gather ids (drawing tail corruptions from the
// shared Rng while the id lists are built, as the original loop did),
// score both contexts, and take an Adam step on the margin loss.
class TransEdgeTask : public sdea::train::TrainTask {
 public:
  TransEdgeTask(TransEdgeNet* net, sdea::nn::Adam* optimizer,
                const std::vector<Triple>* triples,
                sdea::train::NegativeSampler sampler, Rng* rng, float margin)
      : net_(net),
        optimizer_(optimizer),
        triples_(triples),
        sampler_(std::move(sampler)),
        rng_(rng),
        margin_(margin) {}

  size_t num_examples() const override { return triples_->size(); }
  Rng* rng() override { return rng_; }
  sdea::nn::Module* module() override { return net_; }
  sdea::nn::Optimizer* optimizer() override { return optimizer_; }

  float TrainBatch(const uint64_t* ids, size_t n) override {
    std::vector<int64_t> h_ids, r_ids, t_ids, tneg_ids;
    for (size_t i = 0; i < n; ++i) {
      const Triple& tr = (*triples_)[ids[i]];
      h_ids.push_back(tr.h);
      r_ids.push_back(tr.r);
      t_ids.push_back(tr.t);
      tneg_ids.push_back(sampler_.SampleEntity(rng_));
    }
    Graph g;
    NodeId ent = g.Param(net_->entity_);
    NodeId rel = g.Param(net_->relation_);
    NodeId h = g.Gather(ent, h_ids);
    NodeId r = g.Gather(rel, r_ids);
    NodeId t = g.Gather(ent, t_ids);
    NodeId tn = g.Gather(ent, tneg_ids);
    // anchor = h + psi(h, t); positive = t; negative = corrupted tail
    // with its own context.
    NodeId pos_pred = g.Add(h, Psi(&g, h, t, r));
    NodeId neg_pred = g.Add(h, Psi(&g, h, tn, r));
    NodeId d_pos = sdea::nn::RowSquaredL2Distance(&g, pos_pred, t);
    NodeId d_neg = sdea::nn::RowSquaredL2Distance(&g, neg_pred, tn);
    NodeId loss = sdea::nn::MarginHinge(&g, d_pos, d_neg, margin_);
    optimizer_->ZeroGrad();
    g.Backward(loss);
    optimizer_->ClipGradNorm(5.0f);
    optimizer_->Step();
    return g.Value(loss).data()[0];
  }

  void OnEpochEnd(int64_t /*epoch*/) override {
    tmath::L2NormalizeRowsInPlace(&net_->entity_->value);
  }

 private:
  // psi(H, T, R) = tanh([H;T] W + b) + R, rows batched.
  NodeId Psi(Graph* g, NodeId h, NodeId t, NodeId r) const {
    NodeId ctx = g->Tanh(g->AddRowBroadcast(
        g->Matmul(g->ConcatCols(h, t), g->Param(net_->w_)),
        g->Param(net_->b_)));
    return g->Add(ctx, r);
  }

  TransEdgeNet* net_;
  sdea::nn::Adam* optimizer_;
  const std::vector<Triple>* triples_;
  sdea::train::NegativeSampler sampler_;
  Rng* rng_;
  float margin_;
};

}  // namespace

Status TransEdge::Fit(const AlignInput& input) {
  const int64_t n1 = input.kg1.num_entities();
  const int64_t n2 = input.kg2.num_entities();
  const int64_t total = n1 + n2;
  const int64_t relations = std::max<int64_t>(
      1, input.kg1.num_relations() + input.kg2.num_relations());
  const int64_t d = config_.dim;

  // Seed-sharing merge (as in the other joint-space baselines).
  const std::vector<int64_t> merge = SeedMerge(n1, n2, input.seeds.train);
  std::vector<Triple> triples;
  for (const kg::RelationalTriple& t : UnionTriples(input.kg1, input.kg2)) {
    triples.push_back({merge[static_cast<size_t>(t.head)], t.relation,
                       merge[static_cast<size_t>(t.tail)]});
  }
  if (triples.empty()) {
    return Status::InvalidArgument("TransEdge: no relational triples");
  }

  Rng rng(config_.seed);
  TransEdgeNet net(total, relations, d, &rng);
  sdea::nn::Adam optimizer(net.Parameters(), config_.lr);

  TransEdgeTask task(&net, &optimizer, &triples,
                     train::NegativeSampler(total, merge), &rng,
                     config_.margin);
  train::TrainerOptions options;
  options.max_epochs = config_.epochs;
  options.batch_size = config_.batch_size;
  options.shuffle = train::TrainerOptions::Shuffle::kCumulative;
  train::Trainer trainer(&task, options);
  auto stats = trainer.Run();
  if (!stats.ok()) return stats.status();

  std::tie(emb1_, emb2_) = SplitUnion(net.entity_->value, n1, merge);
  return Status::Ok();
}

}  // namespace sdea::baselines
