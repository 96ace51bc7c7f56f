#include "nn/loss.h"

namespace sdea::nn {

NodeId RowSquaredL2Distance(Graph* g, NodeId a, NodeId b) {
  NodeId diff = g->Sub(a, b);
  NodeId sq = g->Mul(diff, diff);
  // Row-sum via matmul with a column of ones.
  const int64_t d = g->Value(a).dim(1);
  NodeId ones = g->Input(Tensor({d, 1}, 1.0f));
  return g->Matmul(sq, ones);  // [B, 1]
}

NodeId MarginHinge(Graph* g, NodeId d_pos, NodeId d_neg, float margin) {
  NodeId hinge = g->Relu(g->AddConst(g->Sub(d_pos, d_neg), margin));
  return g->MeanAll(hinge);
}

NodeId MarginRankingLoss(Graph* g, NodeId anchor, NodeId positive,
                         NodeId negative, float margin) {
  NodeId d_pos = RowSquaredL2Distance(g, anchor, positive);
  NodeId d_neg = RowSquaredL2Distance(g, anchor, negative);
  return MarginHinge(g, d_pos, d_neg, margin);
}

}  // namespace sdea::nn
