#ifndef SDEA_NN_LAYERS_H_
#define SDEA_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace sdea::nn {

/// Fully-connected layer: y = x @ W + b, x: [m, in] -> y: [m, out].
class Linear : public Module {
 public:
  Linear(const std::string& name, int64_t in_dim, int64_t out_dim, Rng* rng);

  NodeId Forward(Graph* g, NodeId x) const;

  /// No-grad Forward of [m, in] rows: each output row has the bits
  /// Forward gives that row alone.
  Tensor Infer(const Tensor& x) const;

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  Parameter* weight_;  // [in, out]
  Parameter* bias_;    // [out]
};

/// Lookup table mapping integer ids to dense rows.
class Embedding : public Module {
 public:
  Embedding(const std::string& name, int64_t vocab_size, int64_t dim,
            Rng* rng);

  /// ids -> [ids.size(), dim].
  NodeId Forward(Graph* g, const std::vector<int64_t>& ids) const;

  /// Direct (no-autograd) read of one row, for inference fast paths.
  Tensor Lookup(int64_t id) const;

  /// Overwrites row `id` (used to inject pre-trained vectors).
  void SetRow(int64_t id, const Tensor& row);

  int64_t vocab_size() const { return vocab_size_; }
  int64_t dim() const { return dim_; }
  Parameter* table() { return table_; }

 private:
  int64_t vocab_size_;
  int64_t dim_;
  Parameter* table_;  // [vocab, dim]
};

/// Per-row layer normalization with learned affine transform.
class LayerNorm : public Module {
 public:
  LayerNorm(const std::string& name, int64_t dim);

  NodeId Forward(Graph* g, NodeId x) const;

 private:
  Parameter* gain_;  // [dim], init 1
  Parameter* bias_;  // [dim], init 0
};

/// Supported MLP activations.
enum class Activation { kRelu, kTanh, kSigmoid, kNone };

/// Multi-layer perceptron: a stack of Linear layers with an activation
/// between layers (none after the last).
class Mlp : public Module {
 public:
  /// `dims` is [in, hidden..., out]; requires dims.size() >= 2.
  Mlp(const std::string& name, const std::vector<int64_t>& dims,
      Activation activation, Rng* rng);

  NodeId Forward(Graph* g, NodeId x) const;

  /// No-grad Forward of [m, in] rows (see Linear::Infer).
  Tensor Infer(const Tensor& x) const;

  int64_t in_dim() const { return layers_.front()->in_dim(); }
  int64_t out_dim() const { return layers_.back()->out_dim(); }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation activation_;
};

}  // namespace sdea::nn

#endif  // SDEA_NN_LAYERS_H_
