#ifndef SDEA_NN_LOSS_H_
#define SDEA_NN_LOSS_H_

#include "tensor/graph.h"

namespace sdea::nn {

/// Per-row squared L2 distance between [B,d] `a` and [B,d] `b` -> [B,1].
NodeId RowSquaredL2Distance(Graph* g, NodeId a, NodeId b);

/// The margin hinge over per-row distance columns ([B,1] each, smaller =
/// more similar): mean_i max(0, d_pos_i - d_neg_i + margin). The core of
/// Eq. 18, shared by MarginRankingLoss and the TransE-family baselines,
/// which score ||h + r - t||^2 pairs instead of embedding rows.
NodeId MarginHinge(Graph* g, NodeId d_pos, NodeId d_neg, float margin);

/// The paper's margin-based ranking loss (Eq. 18) over a batch of triplets:
///   mean_i max(0, rho(anchor_i, pos_i) - rho(anchor_i, neg_i) + margin)
/// where rho is the L2 distance. `anchor`, `positive`, `negative` are
/// [B, d] embedding matrices; returns a scalar node.
NodeId MarginRankingLoss(Graph* g, NodeId anchor, NodeId positive,
                         NodeId negative, float margin);

}  // namespace sdea::nn

#endif  // SDEA_NN_LOSS_H_
