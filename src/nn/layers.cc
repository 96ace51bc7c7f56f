#include "nn/layers.h"

#include <cmath>

#include "tensor/kernels.h"

namespace sdea::nn {

Linear::Linear(const std::string& name, int64_t in_dim, int64_t out_dim,
               Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  SDEA_CHECK_GT(in_dim, 0);
  SDEA_CHECK_GT(out_dim, 0);
  // Glorot-uniform initialization.
  const float limit = std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
  weight_ = AddParameter(name + ".weight",
                         Tensor::RandomUniform({in_dim, out_dim}, limit, rng));
  bias_ = AddParameter(name + ".bias", Tensor({out_dim}));
}

NodeId Linear::Forward(Graph* g, NodeId x) const {
  NodeId w = g->Param(weight_);
  NodeId b = g->Param(bias_);
  return g->AddRowBroadcast(g->Matmul(x, w), b);
}

Tensor Linear::Infer(const Tensor& x) const {
  Tensor y = tmath::Matmul(x, weight_->value);
  tmath::AddRowBroadcastInPlace(&y, bias_->value);
  return y;
}

Embedding::Embedding(const std::string& name, int64_t vocab_size, int64_t dim,
                     Rng* rng)
    : vocab_size_(vocab_size), dim_(dim) {
  SDEA_CHECK_GT(vocab_size, 0);
  SDEA_CHECK_GT(dim, 0);
  table_ = AddParameter(
      name + ".table",
      Tensor::RandomNormal({vocab_size, dim},
                           1.0f / std::sqrt(static_cast<float>(dim)), rng));
}

NodeId Embedding::Forward(Graph* g, const std::vector<int64_t>& ids) const {
  return g->Gather(g->Param(table_), ids);
}

Tensor Embedding::Lookup(int64_t id) const { return table_->value.Row(id); }

void Embedding::SetRow(int64_t id, const Tensor& row) {
  table_->value.SetRow(id, row);
}

LayerNorm::LayerNorm(const std::string& name, int64_t dim) {
  SDEA_CHECK_GT(dim, 0);
  gain_ = AddParameter(name + ".gain", Tensor({dim}, 1.0f));
  bias_ = AddParameter(name + ".bias", Tensor({dim}));
}

NodeId LayerNorm::Forward(Graph* g, NodeId x) const {
  return g->LayerNormRows(x, g->Param(gain_), g->Param(bias_));
}

namespace {

NodeId ApplyActivation(Graph* g, NodeId x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return g->Relu(x);
    case Activation::kTanh:
      return g->Tanh(x);
    case Activation::kSigmoid:
      return g->Sigmoid(x);
    case Activation::kNone:
      return x;
  }
  return x;
}

void ActivateInPlace(Tensor* x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      tmath::kernels::ReluInPlace(x->data(), x->size());
      return;
    case Activation::kTanh:
      tmath::TanhInPlace(x->data(), x->size());
      return;
    case Activation::kSigmoid:
      tmath::SigmoidInPlace(x->data(), x->size());
      return;
    case Activation::kNone:
      return;
  }
}

}  // namespace

Mlp::Mlp(const std::string& name, const std::vector<int64_t>& dims,
         Activation activation, Rng* rng)
    : activation_(activation) {
  SDEA_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(
        name + ".layer" + std::to_string(i), dims[i], dims[i + 1], rng));
    AddSubmodule(layers_.back().get());
  }
}

NodeId Mlp::Forward(Graph* g, NodeId x) const {
  NodeId h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(g, h);
    if (i + 1 < layers_.size()) h = ApplyActivation(g, h, activation_);
  }
  return h;
}

Tensor Mlp::Infer(const Tensor& x) const {
  Tensor h = layers_[0]->Infer(x);
  for (size_t i = 1; i < layers_.size(); ++i) {
    ActivateInPlace(&h, activation_);
    h = layers_[i]->Infer(h);
  }
  return h;
}

}  // namespace sdea::nn
