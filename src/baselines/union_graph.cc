#include "baselines/union_graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

namespace sdea::baselines {
namespace {

void AppendRows(const kg::KnowledgeGraph& graph, int32_t entity_offset,
                int32_t relation_offset,
                std::vector<kg::RelationalTriple>* out) {
  const kg::KgSnapshot snap = graph.Snapshot();
  out->reserve(out->size() +
               static_cast<size_t>(snap.num_relational_triples()));
  snap.ForEachRelational(
      [&](int64_t /*row*/, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
        out->push_back(kg::RelationalTriple{
            h + entity_offset, r + relation_offset, t + entity_offset});
      });
}

}  // namespace

std::vector<kg::RelationalTriple> RelationalRows(
    const kg::KnowledgeGraph& graph) {
  std::vector<kg::RelationalTriple> out;
  AppendRows(graph, 0, 0, &out);
  return out;
}

std::vector<kg::RelationalTriple> UnionTriples(const kg::KnowledgeGraph& kg1,
                                               const kg::KnowledgeGraph& kg2) {
  std::vector<kg::RelationalTriple> out = RelationalRows(kg1);
  AppendRows(kg2, static_cast<int32_t>(kg1.num_entities()),
             static_cast<int32_t>(kg1.num_relations()), &out);
  return out;
}

CooEdges UnionEdges(const kg::KnowledgeGraph& kg1,
                    const kg::KnowledgeGraph& kg2) {
  CooEdges coo;
  for (const kg::RelationalTriple& t : UnionTriples(kg1, kg2)) {
    coo.emplace_back(t.head, t.tail, 1.0f);
    coo.emplace_back(t.tail, t.head, 1.0f);
  }
  const int64_t total = kg1.num_entities() + kg2.num_entities();
  for (int64_t i = 0; i < total; ++i) coo.emplace_back(i, i, 1.0f);
  return coo;
}

CsrMatrix NormalizedAdjacency(int64_t n, CooEdges coo) {
  std::vector<double> degree(static_cast<size_t>(n), 0.0);
  for (const auto& [r, c, v] : coo) degree[static_cast<size_t>(r)] += v;
  for (auto& [r, c, v] : coo) {
    const double dr = std::max(degree[static_cast<size_t>(r)], 1e-9);
    const double dc = std::max(degree[static_cast<size_t>(c)], 1e-9);
    v = static_cast<float>(v / std::sqrt(dr * dc));
  }
  return CsrMatrix::FromTriplets(n, n, coo);
}

Tensor AttributeNameCounts(const kg::KnowledgeGraph& kg1,
                           const kg::KnowledgeGraph& kg2, int64_t dim) {
  const int64_t n1 = kg1.num_entities();
  Tensor out({n1 + kg2.num_entities(), dim});
  auto fill = [&](const kg::KnowledgeGraph& g, int64_t offset) {
    const kg::KgSnapshot snap = g.Snapshot();
    snap.ForEachAttribute([&](int64_t /*row*/, kg::EntityId e,
                              kg::AttributeId a, const std::string& /*v*/) {
      const size_t h = std::hash<std::string>{}(snap.attribute_name(a)) %
                       static_cast<size_t>(dim);
      out[(offset + e) * dim + static_cast<int64_t>(h)] += 1.0f;
    });
  };
  fill(kg1, 0);
  fill(kg2, n1);
  tmath::L2NormalizeRowsInPlace(&out);
  return out;
}

}  // namespace sdea::baselines
