#ifndef SDEA_TENSOR_GRAPH_H_
#define SDEA_TENSOR_GRAPH_H_

#include <functional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace sdea {

/// A trainable tensor with an accumulated gradient. Parameters are owned by
/// nn::Module objects and outlive any Graph that references them.
struct Parameter {
  Parameter() = default;
  Parameter(std::string name_in, Tensor value_in)
      : name(std::move(name_in)),
        value(std::move(value_in)),
        grad(value.shape()) {}

  /// Zeroes the accumulated gradient.
  void ZeroGrad() { grad.Zero(); }

  std::string name;
  Tensor value;
  Tensor grad;
};

/// Identifies a node within a Graph.
using NodeId = int32_t;

/// A reverse-mode autodiff tape. A Graph is built per training step: leaf
/// nodes wrap constants (`Input`) or parameters (`Param`); op methods record
/// a node holding the forward value and a closure that propagates gradients
/// to the op's inputs. `Backward(loss)` runs the tape in reverse. The graph
/// is then discarded; parameter gradients persist in the Parameter objects.
///
/// All ops operate on rank-2 tensors unless stated otherwise; rank-1 tensors
/// are accepted where noted and treated as a single row.
class Graph {
 public:
  Graph() = default;

  // Graphs hold closures over internal state; they are neither copyable nor
  // movable.
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // ---- Leaves -------------------------------------------------------------

  /// Constant leaf (no gradient).
  NodeId Input(Tensor value);

  /// Parameter leaf: gradients reaching this node accumulate into `p->grad`.
  /// The leaf's value is `p->value` itself, read in place, not a copy: an
  /// optimizer step changes what the leaf reads, so build a new graph after
  /// one. `p` must outlive the graph.
  NodeId Param(Parameter* p);

  // ---- Linear algebra -----------------------------------------------------

  /// [m,k] @ [k,n] -> [m,n].
  NodeId Matmul(NodeId a, NodeId b);

  /// 2-D transpose.
  NodeId Transpose(NodeId a);

  /// adj @ x for a constant CSR `adj` [m,n] and dense x [n,d] -> [m,d].
  /// `adj` must outlive the graph; gradients flow into `x` only.
  NodeId SparseMatmul(const CsrMatrix* adj, NodeId x);

  // ---- Element-wise -------------------------------------------------------

  NodeId Add(NodeId a, NodeId b);        ///< Same-shape a + b.
  NodeId Sub(NodeId a, NodeId b);        ///< Same-shape a - b.
  NodeId Mul(NodeId a, NodeId b);        ///< Same-shape Hadamard product.
  NodeId Scale(NodeId a, float s);       ///< a * s.
  NodeId AddConst(NodeId a, float c);    ///< a + c element-wise.
  NodeId Sigmoid(NodeId a);
  NodeId Tanh(NodeId a);
  NodeId Relu(NodeId a);

  /// Adds rank-1 `bias` (length n) to every row of [m,n] `a`.
  NodeId AddRowBroadcast(NodeId a, NodeId bias);

  // ---- Shape --------------------------------------------------------------

  /// Concatenates along columns: [m,n1] ++ [m,n2] -> [m,n1+n2].
  /// Rank-1 inputs of equal "rows" semantics (treated as [1,n]) are allowed.
  NodeId ConcatCols(NodeId a, NodeId b);

  /// Stacks `parts` (at least one) along rows: [m1,n] ++ ... ++ [mk,n] ->
  /// [m1+...+mk,n] in one node and one copy. Rank-1 parts count as [1,n].
  /// Backward adds each part's row slice of the gradient into it once.
  NodeId StackRows(const std::vector<NodeId>& parts);

  /// Column slice [m, end-begin] of [m,n]; 0 <= begin < end <= n.
  NodeId SliceCols(NodeId a, int64_t begin, int64_t end);

  /// Row slice [end-begin, n] of [m,n].
  NodeId SliceRows(NodeId a, int64_t begin, int64_t end);

  // ---- Reductions & normalization ------------------------------------------

  /// Scalar (shape [1]) sum of all elements.
  NodeId SumAll(NodeId a);

  /// Scalar mean of all elements.
  NodeId MeanAll(NodeId a);

  /// Mean over rows: [m,n] -> [1,n].
  NodeId MeanRows(NodeId a);

  /// Row-wise softmax of [m,n].
  NodeId SoftmaxRows(NodeId a);

  /// Layer normalization over each row of [m,n], then affine transform with
  /// rank-1 `gain` and `bias` (length n).
  NodeId LayerNormRows(NodeId a, NodeId gain, NodeId bias, float eps = 1e-5f);

  /// Normalizes each row of [m,n] to unit L2 norm (rows with norm < eps pass
  /// through unscaled).
  NodeId L2NormalizeRows(NodeId a, float eps = tmath::kL2NormalizeEps);

  // ---- Embedding / dropout --------------------------------------------------

  /// Gathers rows of [V,D] `table` at `indices` -> [N,D]. Backward
  /// scatter-adds into the table gradient.
  NodeId Gather(NodeId table, std::vector<int64_t> indices);

  /// Inverted dropout with keep-prob (1-p). Identity when `training` is
  /// false or p == 0.
  NodeId Dropout(NodeId a, float p, bool training, Rng* rng);

  // ---- Access ---------------------------------------------------------------

  const Tensor& Value(NodeId id) const;
  const Tensor& Grad(NodeId id) const;
  int64_t NumNodes() const { return static_cast<int64_t>(nodes_.size()); }

  /// Runs reverse-mode accumulation from `loss`, which must hold exactly one
  /// element. Parameter gradients are *added* to each Parameter::grad.
  void Backward(NodeId loss);

 private:
  struct Node {
    Tensor value;  // empty for a parameter leaf, which reads `param`
    Tensor grad;   // allocated lazily in Backward
    bool requires_grad = false;
    std::function<void(Graph*)> backward;  // null for constants
    const Tensor* param = nullptr;  // the Parameter's value, for Param leaves
  };

  NodeId AddNode(Tensor value, bool requires_grad,
                 std::function<void(Graph*)> backward);
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  /// Grad tensor of `id`, allocated (zeroed) on first access.
  Tensor& MutableGrad(NodeId id);
  bool RequiresGrad(NodeId id) const { return node(id).requires_grad; }

  std::vector<Node> nodes_;
};

}  // namespace sdea

#endif  // SDEA_TENSOR_GRAPH_H_
