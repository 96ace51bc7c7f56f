#ifndef SDEA_BASELINES_UNION_GRAPH_H_
#define SDEA_BASELINES_UNION_GRAPH_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "kg/knowledge_graph.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace sdea::baselines {

// The graph inputs the structural baselines share. Each one pins a
// snapshot per KG and scans it in row order, so rows come out in
// insertion order. The union entity space is KG1's ids [0, |E1|) followed
// by KG2's ids offset by |E1|.

/// `graph`'s relational triples as a row list (TransE training input).
std::vector<kg::RelationalTriple> RelationalRows(
    const kg::KnowledgeGraph& graph);

/// KG1's relational rows, then KG2's rows with entity ids offset by |E1|
/// and relation ids by |R1|.
std::vector<kg::RelationalTriple> UnionTriples(const kg::KnowledgeGraph& kg1,
                                               const kg::KnowledgeGraph& kg2);

/// Weighted COO entries (row, column, value) of an adjacency matrix.
using CooEdges = std::vector<std::tuple<int64_t, int64_t, float>>;

/// The undirected union graph with self-loops, unnormalized: both
/// directions of every UnionTriples row, then (i, i) for every union
/// entity, all with weight 1.
CooEdges UnionEdges(const kg::KnowledgeGraph& kg1,
                    const kg::KnowledgeGraph& kg2);

/// Symmetric normalization D^-1/2 (A+I) D^-1/2 of `n` x `n` COO edges
/// (degrees are the row sums of `coo`).
CsrMatrix NormalizedAdjacency(int64_t n, CooEdges coo);

/// Hashed attribute-name count features over the union entity space,
/// L2-normalized per row. Names are hashed into `dim` buckets, so
/// identical names in both KGs share a dimension.
Tensor AttributeNameCounts(const kg::KnowledgeGraph& kg1,
                           const kg::KnowledgeGraph& kg2, int64_t dim);

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_UNION_GRAPH_H_
