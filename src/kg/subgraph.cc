#include "kg/subgraph.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace sdea::kg {

KnowledgeGraph CondenseByPopularity(const KnowledgeGraph& graph,
                                    const CondenseOptions& options,
                                    std::vector<EntityId>* old_to_new) {
  const KgSnapshot snap = graph.Snapshot();
  const int64_t n = snap.num_entities();
  // Rank entities by degree (desc); entities in the top
  // popularity_fraction are "popular".
  const std::vector<int64_t> degrees = snap.Degrees();
  std::vector<EntityId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](EntityId a, EntityId b) {
    const int64_t da = degrees[static_cast<size_t>(a)];
    const int64_t db = degrees[static_cast<size_t>(b)];
    if (da != db) return da > db;
    return a < b;
  });
  const int64_t popular_count = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(n) *
                              options.popularity_fraction));
  std::vector<bool> popular(static_cast<size_t>(n), false);
  for (int64_t i = 0; i < popular_count; ++i) {
    popular[static_cast<size_t>(order[static_cast<size_t>(i)])] = true;
  }

  // Select triples between popular endpoints; backfill by global degree
  // order if below min_triples.
  std::vector<bool> keep_triple(
      static_cast<size_t>(snap.num_relational_triples()), false);
  int64_t kept = 0;
  snap.ForEachRelational(
      [&](int64_t row, EntityId h, RelationId /*r*/, EntityId t) {
        if (popular[static_cast<size_t>(h)] &&
            popular[static_cast<size_t>(t)]) {
          keep_triple[static_cast<size_t>(row)] = true;
          ++kept;
        }
      });
  for (size_t i = 0;
       kept < options.min_triples && i < keep_triple.size(); ++i) {
    if (!keep_triple[i]) {
      keep_triple[i] = true;
      ++kept;
    }
  }

  // Surviving entities.
  std::vector<bool> survives(static_cast<size_t>(n),
                             !options.drop_isolated);
  snap.ForEachRelational(
      [&](int64_t row, EntityId h, RelationId /*r*/, EntityId t) {
        if (!keep_triple[static_cast<size_t>(row)]) return;
        survives[static_cast<size_t>(h)] = true;
        survives[static_cast<size_t>(t)] = true;
      });

  KnowledgeGraph out;
  out.BeginBulkLoad();
  std::vector<EntityId> remap(static_cast<size_t>(n), kInvalidEntity);
  for (EntityId e = 0; e < n; ++e) {
    if (survives[static_cast<size_t>(e)]) {
      remap[static_cast<size_t>(e)] = out.AddEntity(snap.entity_name(e));
    }
  }
  snap.ForEachRelational(
      [&](int64_t row, EntityId h, RelationId rel, EntityId t) {
        if (!keep_triple[static_cast<size_t>(row)]) return;
        const RelationId r = out.AddRelation(snap.relation_name(rel));
        out.AddRelationalTriple(remap[static_cast<size_t>(h)], r,
                                remap[static_cast<size_t>(t)]);
      });
  snap.ForEachAttribute(
      [&](int64_t /*row*/, EntityId entity, AttributeId attribute,
          const std::string& value) {
        const EntityId e = remap[static_cast<size_t>(entity)];
        if (e == kInvalidEntity) return;
        const AttributeId a = out.AddAttribute(snap.attribute_name(attribute));
        out.AddAttributeTriple(e, a, value);
      });
  out.EndBulkLoad();
  if (old_to_new != nullptr) *old_to_new = std::move(remap);
  return out;
}

std::vector<int64_t> DegreeHistogram(const KnowledgeGraph& graph,
                                     int64_t max_degree) {
  SDEA_CHECK_GE(max_degree, 1);
  std::vector<int64_t> hist(static_cast<size_t>(max_degree) + 1, 0);
  for (const int64_t degree : graph.Snapshot().Degrees()) {
    const int64_t d = std::min(degree, max_degree);
    ++hist[static_cast<size_t>(d)];
  }
  return hist;
}

}  // namespace sdea::kg
