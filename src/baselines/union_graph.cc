#include "baselines/union_graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>

#include "base/check.h"

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

std::vector<int64_t> SeedMerge(
    int64_t n1, int64_t n2,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& train) {
  std::vector<int64_t> merge(static_cast<size_t>(n1 + n2));
  std::iota(merge.begin(), merge.end(), int64_t{0});
  for (const auto& [a, b] : train) merge[static_cast<size_t>(n1 + b)] = a;
  return merge;
}

std::pair<Tensor, Tensor> SplitUnion(const Tensor& table, int64_t n1,
                                     const std::vector<int64_t>& merge) {
  const int64_t total =
      merge.empty() ? table.dim(0) : static_cast<int64_t>(merge.size());
  SDEA_CHECK(n1 >= 0 && n1 <= total);
  const int64_t d = table.dim(1);
  std::pair<Tensor, Tensor> out{Tensor({n1, d}), Tensor({total - n1, d})};
  for (int64_t i = 0; i < total; ++i) {
    const int64_t slot = merge.empty() ? i : merge[static_cast<size_t>(i)];
    float* dst = i < n1 ? out.first.data() + i * d
                        : out.second.data() + (i - n1) * d;
    std::copy(table.data() + slot * d, table.data() + (slot + 1) * d, dst);
  }
  return out;
}

std::vector<std::string> EntityNames(const kg::KnowledgeGraph& graph) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(graph.num_entities()));
  for (kg::EntityId e = 0; e < graph.num_entities(); ++e) {
    out.push_back(graph.entity_name(e));
  }
  return out;
}

void MeanTokenVectors(const std::vector<std::string>& texts,
                      const text::SubwordTokenizer& tokenizer,
                      const Tensor& table, Tensor* rows) {
  const int64_t d = table.dim(1);
  SDEA_CHECK_EQ(rows->dim(1), d);
  SDEA_CHECK_GE(rows->dim(0), static_cast<int64_t>(texts.size()));
  for (size_t i = 0; i < texts.size(); ++i) {
    const std::vector<int64_t> ids = tokenizer.Encode(texts[i]);
    if (ids.empty()) continue;
    float* row = rows->data() + static_cast<int64_t>(i) * d;
    std::fill(row, row + d, 0.0f);
    for (int64_t id : ids) {
      const float* trow = table.data() + id * d;
      for (int64_t j = 0; j < d; ++j) row[j] += trow[j];
    }
    const float inv = 1.0f / static_cast<float>(ids.size());
    for (int64_t j = 0; j < d; ++j) row[j] *= inv;
  }
}

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
