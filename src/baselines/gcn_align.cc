#include "baselines/gcn_align.h"

#include <cmath>

#include "base/check.h"
#include "baselines/union_graph.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "text/pretrain.h"
#include "text/tokenizer.h"

namespace sdea::baselines {
namespace {

// Feature-dependent attention weights over the raw edges (stop-gradient:
// weights are recomputed from the current features each refresh but treated
// as constants by autograd), followed by row-softmax.
CsrMatrix AttentionAdjacency(int64_t n, const CooEdges& coo,
                             const Tensor& features, const Tensor& attn_vec) {
  const int64_t d = features.dim(1);
  SDEA_CHECK_EQ(attn_vec.size(), 2 * d);
  CooEdges weighted;
  weighted.reserve(coo.size());
  std::vector<double> row_max(static_cast<size_t>(n), -1e30);
  std::vector<float> raw(coo.size());
  for (size_t k = 0; k < coo.size(); ++k) {
    const auto& [r, c, v] = coo[k];
    const float* fi = features.data() + r * d;
    const float* fj = features.data() + c * d;
    double score = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      score += attn_vec[j] * fi[j] + attn_vec[d + j] * fj[j];
    }
    // LeakyReLU(0.2).
    if (score < 0.0) score *= 0.2;
    raw[k] = static_cast<float>(score);
    row_max[static_cast<size_t>(r)] =
        std::max(row_max[static_cast<size_t>(r)], score);
  }
  std::vector<double> row_sum(static_cast<size_t>(n), 0.0);
  for (size_t k = 0; k < coo.size(); ++k) {
    const auto& [r, c, v] = coo[k];
    raw[k] = std::exp(raw[k] - static_cast<float>(
                                   row_max[static_cast<size_t>(r)]));
    row_sum[static_cast<size_t>(r)] += raw[k];
  }
  for (size_t k = 0; k < coo.size(); ++k) {
    const auto& [r, c, v] = coo[k];
    weighted.emplace_back(
        r, c,
        static_cast<float>(raw[k] /
                           std::max(row_sum[static_cast<size_t>(r)], 1e-12)));
  }
  return CsrMatrix::FromTriplets(n, n, weighted);
}

// The trainable parameters live in a small module for uniform handling.
class GcnNet : public sdea::nn::Module {
 public:
  GcnNet(int64_t n, const GcnAlign::Config& cfg, Rng* rng) {
    features_ = AddParameter(
        "gcn.features",
        Tensor::RandomNormal({n, cfg.feature_dim},
                             1.0f / std::sqrt(static_cast<float>(
                                        cfg.feature_dim)),
                             rng));
    const float l0 = std::sqrt(
        6.0f / static_cast<float>(cfg.feature_dim + cfg.hidden_dim));
    w0_ = AddParameter("gcn.w0",
                       Tensor::RandomUniform(
                           {cfg.feature_dim, cfg.hidden_dim}, l0, rng));
    const float l1 = std::sqrt(
        6.0f / static_cast<float>(cfg.hidden_dim + cfg.out_dim));
    w1_ = AddParameter(
        "gcn.w1",
        Tensor::RandomUniform({cfg.hidden_dim, cfg.out_dim}, l1, rng));
    attn_ = AddParameter(
        "gcn.attn",
        Tensor::RandomUniform({2 * cfg.feature_dim}, 0.1f, rng));
    if (cfg.use_attributes) {
      const float la = std::sqrt(
          6.0f / static_cast<float>(cfg.attr_feature_dim + cfg.out_dim));
      wa_ = AddParameter("gcn.wa",
                         Tensor::RandomUniform(
                             {cfg.attr_feature_dim, cfg.out_dim}, la, rng));
    }
  }

  Parameter* features_;
  Parameter* w0_;
  Parameter* w1_;
  Parameter* attn_;
  Parameter* wa_ = nullptr;
};

}  // namespace

GcnAlign::Config GcnConfig() {
  GcnAlign::Config c;
  c.display_name = "GCN";
  return c;
}

GcnAlign::Config GcnAlignConfig() {
  GcnAlign::Config c;
  c.use_attributes = true;
  c.display_name = "GCN-Align";
  return c;
}

GcnAlign::Config GatAlignConfig() {
  GcnAlign::Config c;
  c.use_attention = true;
  c.display_name = "MuGNN (GAT)";
  return c;
}

GcnAlign::Config RdgcnLiteConfig() {
  GcnAlign::Config c;
  c.init_features_from_names = true;
  c.display_name = "RDGCN (lite)";
  return c;
}

Status GcnAlign::Fit(const AlignInput& input) {
  const int64_t n1 = input.kg1.num_entities();
  const int64_t n2 = input.kg2.num_entities();
  const int64_t total = n1 + n2;

  const auto raw_edges = UnionEdges(input.kg1, input.kg2);
  CsrMatrix adjacency = NormalizedAdjacency(total, raw_edges);
  Tensor attr_features;
  if (config_.use_attributes) {
    attr_features = AttributeNameCounts(input.kg1, input.kg2,
                                        config_.attr_feature_dim);
  }

  Rng rng(config_.seed);
  GcnNet net(total, config_, &rng);
  if (config_.init_features_from_names) {
    // RDGCN/HGCN recipe: seed features with pre-trained name embeddings
    // (mean of co-occurrence word vectors over both KGs' entity names).
    std::vector<std::string> names = EntityNames(input.kg1);
    const std::vector<std::string> names2 = EntityNames(input.kg2);
    names.insert(names.end(), names2.begin(), names2.end());
    text::SubwordTokenizer tokenizer;
    text::TokenizerConfig tok_cfg;
    tok_cfg.num_merges = 512;
    text::PretrainConfig pre_cfg;
    pre_cfg.dim = config_.feature_dim;
    pre_cfg.epochs = 8;
    if (tokenizer.Train(names, tok_cfg).ok()) {
      text::CooccurrencePretrainer pretrainer;
      auto table = pretrainer.Train(names, tokenizer, pre_cfg);
      if (table.ok()) {
        MeanTokenVectors(names, tokenizer, *table, &net.features_->value);
        tmath::L2NormalizeRowsInPlace(&net.features_->value);
      }
    }
  }
  sdea::nn::Adam optimizer(net.Parameters(), config_.lr);

  // Full forward pass producing the union embedding matrix [total, D].
  auto forward = [&](Graph* g) -> NodeId {
    NodeId x = g->Param(net.features_);
    NodeId h = g->Relu(
        g->Matmul(g->SparseMatmul(&adjacency, x), g->Param(net.w0_)));
    NodeId out =
        g->Matmul(g->SparseMatmul(&adjacency, h), g->Param(net.w1_));
    if (config_.use_attributes) {
      NodeId ax = g->Input(attr_features);
      NodeId ah = g->Matmul(g->SparseMatmul(&adjacency, ax),
                            g->Param(net.wa_));
      out = g->ConcatCols(out, ah);
    }
    return g->L2NormalizeRows(out);
  };

  double best_valid = -1.0;
  Tensor best_e1, best_e2;
  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    if (config_.use_attention) {
      adjacency = AttentionAdjacency(total, raw_edges, net.features_->value,
                                     net.attn_->value);
    }
    Graph g;
    NodeId all = forward(&g);
    // Margin loss over train pairs, `negatives` corrupted targets each, in
    // both alignment directions.
    std::vector<int64_t> anchor_ids, pos_ids, neg_ids;
    for (const auto& [a, b] : input.seeds.train) {
      for (int64_t k = 0; k < config_.negatives; ++k) {
        anchor_ids.push_back(a);
        pos_ids.push_back(n1 + b);
        neg_ids.push_back(
            n1 + static_cast<int64_t>(rng.UniformInt(
                     static_cast<uint64_t>(n2))));
        anchor_ids.push_back(n1 + b);
        pos_ids.push_back(a);
        neg_ids.push_back(static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(n1))));
      }
    }
    NodeId anchors = g.Gather(all, anchor_ids);
    NodeId positives = g.Gather(all, pos_ids);
    NodeId negatives = g.Gather(all, neg_ids);
    NodeId loss = sdea::nn::MarginRankingLoss(&g, anchors, positives,
                                              negatives, config_.margin);
    optimizer.ZeroGrad();
    g.Backward(loss);
    optimizer.Step();

    if ((epoch + 1) % config_.eval_every == 0 ||
        epoch + 1 == config_.epochs) {
      Graph eg;
      auto [e1, e2] = SplitUnion(eg.Value(forward(&eg)), n1);
      // Validation Hits@1 for best-checkpoint selection.
      const double h1 =
          input.seeds.valid.empty()
              ? 0.0
              : eval::EvaluatePairs(e1, e2, input.seeds.valid).hits_at_1;
      if (h1 >= best_valid) {
        best_valid = h1;
        best_e1 = std::move(e1);
        best_e2 = std::move(e2);
      }
    }
  }
  emb1_ = std::move(best_e1);
  emb2_ = std::move(best_e2);
  return Status::Ok();
}

}  // namespace sdea::baselines
