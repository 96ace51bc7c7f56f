#include "nn/gru.h"

#include <algorithm>
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

Tensor GruCell::InferStep(const Tensor& x, const Tensor& h_prev) const {
  // The ops of Step in its order, so each rounding matches: the gate sums
  // are (x W + h U) + b, and h U runs even for the zero initial state,
  // where x W + (+0) turns a -0 into +0.
  Tensor r = tmath::Add(tmath::Matmul(x, wr_->value),
                        tmath::Matmul(h_prev, ur_->value));
  tmath::AddRowBroadcastInPlace(&r, br_->value);
  tmath::SigmoidInPlace(r.data(), r.size());
  Tensor z = tmath::Add(tmath::Matmul(x, wz_->value),
                        tmath::Matmul(h_prev, uz_->value));
  tmath::AddRowBroadcastInPlace(&z, bz_->value);
  tmath::SigmoidInPlace(z.data(), z.size());
  Tensor candidate =
      tmath::Add(tmath::Matmul(x, wh_->value),
                 tmath::Matmul(tmath::Mul(r, h_prev), uh_->value));
  tmath::AddRowBroadcastInPlace(&candidate, bh_->value);
  tmath::TanhInPlace(candidate.data(), candidate.size());
  const Tensor one_minus_z = tmath::AddConst(tmath::Scale(z, -1.0f), 1.0f);
  return tmath::Add(tmath::Mul(one_minus_z, h_prev), tmath::Mul(z, candidate));
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

Tensor Gru::InferPacked(const Tensor& x, const std::vector<int64_t>& offsets,
                        bool reverse) const {
  SDEA_CHECK_EQ(x.rank(), 2);
  SDEA_CHECK_GE(offsets.size(), 2u);
  SDEA_CHECK_EQ(offsets.front(), 0);
  SDEA_CHECK_EQ(offsets.back(), x.dim(0));
  const int64_t num_seqs = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t in = x.dim(1), hid = cell_->hidden_dim();
  auto length = [&offsets](int64_t i) {
    const size_t s = static_cast<size_t>(i);
    return offsets[s + 1] - offsets[s];
  };
  // Longest first, so the sequences still alive at step s are a prefix of
  // `order` and their states a prefix of `h`.
  std::vector<int64_t> order(static_cast<size_t>(num_seqs));
  for (int64_t i = 0; i < num_seqs; ++i) {
    SDEA_CHECK_GT(length(i), 0);
    order[static_cast<size_t>(i)] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&length](int64_t a, int64_t b) {
    return length(a) > length(b);
  });
  Tensor out({x.dim(0), hid});
  Tensor h({num_seqs, hid});  // Row p: the state of sequence order[p].
  for (int64_t step = 0; step < length(order[0]); ++step) {
    int64_t alive = h.dim(0);
    while (length(order[static_cast<size_t>(alive) - 1]) <= step) --alive;
    if (alive < h.dim(0)) {
      h = Tensor({alive, hid},
                 std::vector<float>(h.data(), h.data() + alive * hid));
    }
    // The input row of each live sequence at this step.
    std::vector<int64_t> rows(static_cast<size_t>(alive));
    Tensor xs({alive, in});
    for (int64_t p = 0; p < alive; ++p) {
      const int64_t seq = order[static_cast<size_t>(p)];
      const int64_t t = reverse ? length(seq) - 1 - step : step;
      const int64_t row = offsets[static_cast<size_t>(seq)] + t;
      rows[static_cast<size_t>(p)] = row;
      std::copy(x.data() + row * in, x.data() + (row + 1) * in,
                xs.data() + p * in);
    }
    h = cell_->InferStep(xs, h);
    for (int64_t p = 0; p < alive; ++p) {
      std::copy(h.data() + p * hid, h.data() + (p + 1) * hid,
                out.data() + rows[static_cast<size_t>(p)] * hid);
    }
  }
  return out;
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

Tensor BiGru::InferPacked(const Tensor& x,
                          const std::vector<int64_t>& offsets) const {
  return tmath::Add(forward_->InferPacked(x, offsets, /*reverse=*/false),
                    backward_->InferPacked(x, offsets, /*reverse=*/true));
}

}  // namespace sdea::nn
