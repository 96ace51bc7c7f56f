#ifndef SDEA_NN_GRU_H_
#define SDEA_NN_GRU_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace sdea::nn {

/// A gated recurrent unit cell implementing the paper's Eqs. (8)-(11):
///   r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)          (reset gate)
///   h~_t = tanh(Wh x_t + Uh (r_t . h_{t-1}) + bh)    (candidate state)
///   z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)          (update gate)
///   h_t = (1 - z_t) . h_{t-1} + z_t . h~_t
class GruCell : public Module {
 public:
  GruCell(const std::string& name, int64_t input_dim, int64_t hidden_dim,
          Rng* rng);

  /// One step: x [1, input_dim], h_prev [1, hidden_dim] -> [1, hidden_dim].
  NodeId Step(Graph* g, NodeId x, NodeId h_prev) const;

  /// No-grad Step over a batch of rows: x [b, input_dim], h_prev
  /// [b, hidden_dim] -> [b, hidden_dim], op for op as Step, so each row has
  /// the bits Step gives that row alone.
  Tensor InferStep(const Tensor& x, const Tensor& h_prev) const;

  int64_t input_dim() const { return input_dim_; }
  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  Parameter* wr_;
  Parameter* ur_;
  Parameter* br_;
  Parameter* wz_;
  Parameter* uz_;
  Parameter* bz_;
  Parameter* wh_;
  Parameter* uh_;
  Parameter* bh_;
};

/// Unidirectional GRU over a [T, input_dim] sequence, producing all hidden
/// states [T, hidden_dim]. The initial state is zero.
class Gru : public Module {
 public:
  Gru(const std::string& name, int64_t input_dim, int64_t hidden_dim,
      Rng* rng);

  /// If `reverse` is true the sequence is processed back-to-front and the
  /// output rows are returned in the original order.
  NodeId Forward(Graph* g, NodeId x, bool reverse = false) const;

  /// No-grad Forward over many sequences at once, packed by length: `x`
  /// holds the sequences back to back, sequence i at rows [offsets[i],
  /// offsets[i + 1]) (each non-empty), and its states land in the same
  /// rows of the result. Step s runs one InferStep over the sequences
  /// longer than s, so every row has the bits Forward gives its sequence
  /// alone.
  Tensor InferPacked(const Tensor& x, const std::vector<int64_t>& offsets,
                     bool reverse) const;

  int64_t hidden_dim() const { return cell_->hidden_dim(); }

 private:
  std::unique_ptr<GruCell> cell_;
};

/// Bidirectional GRU whose per-step output is the SUM of the forward and
/// backward hidden states (as specified in the paper, Section III-B1).
class BiGru : public Module {
 public:
  BiGru(const std::string& name, int64_t input_dim, int64_t hidden_dim,
        Rng* rng);

  /// x: [T, input_dim] -> [T, hidden_dim].
  NodeId Forward(Graph* g, NodeId x) const;

  /// No-grad Forward over packed sequences (see Gru::InferPacked).
  Tensor InferPacked(const Tensor& x,
                     const std::vector<int64_t>& offsets) const;

  int64_t hidden_dim() const { return forward_->hidden_dim(); }

 private:
  std::unique_ptr<Gru> forward_;
  std::unique_ptr<Gru> backward_;
};

}  // namespace sdea::nn

#endif  // SDEA_NN_GRU_H_
