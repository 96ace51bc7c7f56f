#ifndef SDEA_BASELINES_UNION_GRAPH_H_
#define SDEA_BASELINES_UNION_GRAPH_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "kg/knowledge_graph.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"

namespace sdea::baselines {

// The union-space pieces the baselines share. The union entity space is
// KG1's ids [0, |E1|) followed by KG2's ids offset by |E1|. The graph
// readers pin a snapshot per KG and scan it in row order, so rows come
// out in insertion order.

/// The seed-sharing merge of the union space: merge[i] = i, except that
/// each train pair (a, b) sends KG2's union id n1 + b to KG1's slot a, so
/// both entities of a seed pair train one parameter row.
std::vector<int64_t> SeedMerge(
    int64_t n1, int64_t n2,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& train);

/// Splits a union-indexed table into KG1's rows [0, n1) and KG2's rows
/// after them. Union entity i reads `table` row merge[i]; an empty `merge`
/// is the identity over the table's rows. Extra rows past the union (a
/// joint entity + relation vocabulary) are ignored when `merge` is given.
std::pair<Tensor, Tensor> SplitUnion(const Tensor& table, int64_t n1,
                                     const std::vector<int64_t>& merge = {});

/// `graph`'s entity names in id order.
std::vector<std::string> EntityNames(const kg::KnowledgeGraph& graph);

/// For each text with at least one token, overwrites that row of `rows`
/// with the mean of the text's token vectors in `table` (summed in token
/// order, then scaled by 1/count). Rows of token-less texts keep their
/// values. `rows` needs texts.size() rows of table.dim(1) columns.
void MeanTokenVectors(const std::vector<std::string>& texts,
                      const text::SubwordTokenizer& tokenizer,
                      const Tensor& table, Tensor* rows);

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
