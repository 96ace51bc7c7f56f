#include "nn/gru.h"

#include <cmath>

namespace sdea::nn {

GruCell::GruCell(const std::string& name, int64_t input_dim,
                 int64_t hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  SDEA_CHECK_GT(input_dim, 0);
  SDEA_CHECK_GT(hidden_dim, 0);
  const float wl = std::sqrt(6.0f / static_cast<float>(input_dim + hidden_dim));
  const float ul = std::sqrt(6.0f / static_cast<float>(2 * hidden_dim));
  auto w = [&](const char* suffix) {
    return AddParameter(
        name + suffix,
        Tensor::RandomUniform({input_dim, hidden_dim}, wl, rng));
  };
  auto u = [&](const char* suffix) {
    return AddParameter(
        name + suffix,
        Tensor::RandomUniform({hidden_dim, hidden_dim}, ul, rng));
  };
  auto b = [&](const char* suffix) {
    return AddParameter(name + suffix, Tensor({hidden_dim}));
  };
  wr_ = w(".wr");
  ur_ = u(".ur");
  br_ = b(".br");
  wz_ = w(".wz");
  uz_ = u(".uz");
  bz_ = b(".bz");
  wh_ = w(".wh");
  uh_ = u(".uh");
  bh_ = b(".bh");
}

NodeId GruCell::Step(Graph* g, NodeId x, NodeId h_prev) const {
  // r_t = sigmoid(x Wr + h_prev Ur + br)
  NodeId r = g->Sigmoid(g->AddRowBroadcast(
      g->Add(g->Matmul(x, g->Param(wr_)), g->Matmul(h_prev, g->Param(ur_))),
      g->Param(br_)));
  // z_t = sigmoid(x Wz + h_prev Uz + bz)
  NodeId z = g->Sigmoid(g->AddRowBroadcast(
      g->Add(g->Matmul(x, g->Param(wz_)), g->Matmul(h_prev, g->Param(uz_))),
      g->Param(bz_)));
  // h~_t = tanh(x Wh + (r . h_prev) Uh + bh)
  NodeId candidate = g->Tanh(g->AddRowBroadcast(
      g->Add(g->Matmul(x, g->Param(wh_)),
             g->Matmul(g->Mul(r, h_prev), g->Param(uh_))),
      g->Param(bh_)));
  // h_t = (1 - z) . h_prev + z . h~_t
  NodeId one_minus_z = g->AddConst(g->Scale(z, -1.0f), 1.0f);
  return g->Add(g->Mul(one_minus_z, h_prev), g->Mul(z, candidate));
}

Gru::Gru(const std::string& name, int64_t input_dim, int64_t hidden_dim,
         Rng* rng) {
  cell_ = std::make_unique<GruCell>(name + ".cell", input_dim, hidden_dim,
                                    rng);
  AddSubmodule(cell_.get());
}

NodeId Gru::Forward(Graph* g, NodeId x, bool reverse) const {
  const int64_t t_len = g->Value(x).dim(0);
  SDEA_CHECK_GT(t_len, 0);
  NodeId h = g->Input(Tensor({1, cell_->hidden_dim()}));
  std::vector<NodeId> outputs(static_cast<size_t>(t_len));
  for (int64_t step = 0; step < t_len; ++step) {
    const int64_t t = reverse ? (t_len - 1 - step) : step;
    NodeId xt = g->SliceRows(x, t, t + 1);
    h = cell_->Step(g, xt, h);
    outputs[static_cast<size_t>(t)] = h;
  }
  return g->StackRows(outputs);
}

BiGru::BiGru(const std::string& name, int64_t input_dim, int64_t hidden_dim,
             Rng* rng) {
  forward_ = std::make_unique<Gru>(name + ".fwd", input_dim, hidden_dim, rng);
  backward_ = std::make_unique<Gru>(name + ".bwd", input_dim, hidden_dim,
                                    rng);
  AddSubmodule(forward_.get());
  AddSubmodule(backward_.get());
}

NodeId BiGru::Forward(Graph* g, NodeId x) const {
  NodeId fwd = forward_->Forward(g, x, /*reverse=*/false);
  NodeId bwd = backward_->Forward(g, x, /*reverse=*/true);
  return g->Add(fwd, bwd);
}

}  // namespace sdea::nn
