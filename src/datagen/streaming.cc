#include "datagen/streaming.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "kg/types.h"

namespace sdea::datagen {
namespace {

/// Increment index per entity: 0 = present in the base state, i >= 1 =
/// arrives with increments[i-1]. A triple's increment is the latest of its
/// endpoints' — a fact cannot be stated before both entities exist.
std::vector<int64_t> AssignIncrements(
    int64_t num_entities,
    const std::vector<std::pair<kg::EntityId, int64_t>>& streamed) {
  std::vector<int64_t> inc(static_cast<size_t>(num_entities), 0);
  for (const auto& [id, i] : streamed) {
    inc[static_cast<size_t>(id)] = i;
  }
  return inc;
}

/// Rebuilds the base state of the full graph pinned in `snap` (entities
/// with increment 0 and the triples among them), scanning it in row order
/// and replaying the generator's id order so the result is
/// deterministic. The relation/attribute vocabularies are added upfront in
/// full: schema arrives with the base state, only facts stream in.
kg::KnowledgeGraph BuildBase(const kg::KgSnapshot& snap,
                             const std::vector<int64_t>& inc) {
  kg::KnowledgeGraph base;
  base.BeginBulkLoad();
  for (kg::RelationId r = 0; r < snap.num_relations(); ++r) {
    base.AddRelation(snap.relation_name(r));
  }
  for (kg::AttributeId a = 0; a < snap.num_attributes(); ++a) {
    base.AddAttribute(snap.attribute_name(a));
  }
  for (kg::EntityId e = 0; e < snap.num_entities(); ++e) {
    if (inc[static_cast<size_t>(e)] == 0) base.AddEntity(snap.entity_name(e));
  }
  snap.ForEachRelational([&](int64_t /*row*/, kg::EntityId head,
                             kg::RelationId rel, kg::EntityId tail) {
    if (inc[static_cast<size_t>(head)] != 0 ||
        inc[static_cast<size_t>(tail)] != 0) {
      return;
    }
    const kg::EntityId h = base.AddEntity(snap.entity_name(head));
    const kg::RelationId r = base.AddRelation(snap.relation_name(rel));
    const kg::EntityId t = base.AddEntity(snap.entity_name(tail));
    base.AddRelationalTriple(h, r, t);
  });
  snap.ForEachAttribute([&](int64_t /*row*/, kg::EntityId entity,
                            kg::AttributeId attribute,
                            const std::string& value) {
    if (inc[static_cast<size_t>(entity)] != 0) return;
    const kg::EntityId e = base.AddEntity(snap.entity_name(entity));
    const kg::AttributeId a = base.AddAttribute(snap.attribute_name(attribute));
    base.AddAttributeTriple(e, a, value);
  });
  base.EndBulkLoad();
  return base;
}

/// Fills the per-increment updates for one side: arrivals (entities with
/// increment i and the triples that become stateable at i) plus seeded
/// attribute edits on base entities.
void BuildSideUpdates(const kg::KgSnapshot& snap,
                      const std::vector<int64_t>& inc, int64_t num_increments,
                      double attr_edit_frac, Rng* rng,
                      std::vector<incr::UpdateBatch>* batches,
                      incr::KgUpdate incr::UpdateBatch::* side) {
  auto update = [&](int64_t i) -> incr::KgUpdate& {
    return (*batches)[static_cast<size_t>(i - 1)].*side;
  };
  for (kg::EntityId e = 0; e < snap.num_entities(); ++e) {
    const int64_t i = inc[static_cast<size_t>(e)];
    if (i > 0) update(i).new_entities.push_back(snap.entity_name(e));
  }
  snap.ForEachRelational([&](int64_t /*row*/, kg::EntityId h,
                             kg::RelationId r, kg::EntityId t) {
    const int64_t i = std::max(inc[static_cast<size_t>(h)],
                               inc[static_cast<size_t>(t)]);
    if (i == 0) return;
    update(i).relational.push_back(
        {snap.entity_name(h), snap.relation_name(r), snap.entity_name(t)});
  });
  // Arriving attribute rows go to their increment; base rows are the pool
  // the edits below sample from.
  std::vector<int64_t> base_rows;
  snap.ForEachAttribute([&](int64_t row, kg::EntityId e, kg::AttributeId a,
                            const std::string& value) {
    const int64_t i = inc[static_cast<size_t>(e)];
    if (i == 0) {
      base_rows.push_back(row);
      return;
    }
    update(i).attributes.push_back(
        {snap.entity_name(e), snap.attribute_name(a), value});
  });
  // Edits: per increment, revise the value of a seeded sample of *base*
  // attribute triples. The source row stays in the base graph; the edit
  // arrives as a fresher fact about an entity serving already knows.
  const size_t edits_per_inc = static_cast<size_t>(
      attr_edit_frac * static_cast<double>(base_rows.size()));
  for (int64_t i = 1; i <= num_increments; ++i) {
    if (edits_per_inc == 0 || base_rows.empty()) break;
    for (size_t k = 0; k < edits_per_inc; ++k) {
      const int64_t row = base_rows[rng->UniformInt(base_rows.size())];
      const auto [e, a] = snap.AttributeIdsAt(row);
      update(i).attributes.push_back(
          {snap.entity_name(e), snap.attribute_name(a),
           snap.ValueAt(row) + " (rev " + std::to_string(i) + ")"});
    }
  }
}

}  // namespace

StreamingBenchmark GenerateStreaming(const StreamingConfig& config) {
  GeneratedBenchmark full = BenchmarkGenerator().Generate(config.base);

  const int64_t num_matched =
      std::min<int64_t>(config.base.num_matched,
                        static_cast<int64_t>(full.ground_truth.size()));
  const int64_t num_increments = std::max<int64_t>(1, config.num_increments);

  // Ground-truth rows [0, num_matched) are the matched entity pairs (the
  // tail rows are general-concept hubs, which stay in the base). A seeded
  // shuffle picks the streamed pairs; contiguous slices of the shuffled
  // order spread them evenly over the increments.
  Rng rng(config.stream_seed);
  std::vector<int64_t> order(static_cast<size_t>(num_matched));
  for (int64_t i = 0; i < num_matched; ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(&order);
  const int64_t num_streamed = std::min<int64_t>(
      num_matched,
      static_cast<int64_t>(config.stream_frac *
                           static_cast<double>(num_matched)));

  std::vector<std::pair<kg::EntityId, int64_t>> streamed1, streamed2;
  std::vector<std::vector<std::pair<std::string, std::string>>> truth_names(
      static_cast<size_t>(num_increments));
  for (int64_t k = 0; k < num_streamed; ++k) {
    const int64_t pair_idx = order[static_cast<size_t>(k)];
    const int64_t inc = 1 + k * num_increments / std::max<int64_t>(
                                                     1, num_streamed);
    const auto& [e1, e2] = full.ground_truth[static_cast<size_t>(pair_idx)];
    streamed1.emplace_back(e1, inc);
    streamed2.emplace_back(e2, inc);
    truth_names[static_cast<size_t>(inc - 1)].emplace_back(
        full.kg1.entity_name(e1), full.kg2.entity_name(e2));
  }

  const std::vector<int64_t> inc1 =
      AssignIncrements(full.kg1.num_entities(), streamed1);
  const std::vector<int64_t> inc2 =
      AssignIncrements(full.kg2.num_entities(), streamed2);

  const kg::KgSnapshot snap1 = full.kg1.Snapshot();
  const kg::KgSnapshot snap2 = full.kg2.Snapshot();
  StreamingBenchmark out;
  out.name = full.name + "_stream";
  out.kg1 = BuildBase(snap1, inc1);
  out.kg2 = BuildBase(snap2, inc2);
  out.pretrain_corpus = std::move(full.pretrain_corpus);
  out.truth_names = std::move(truth_names);

  out.increments.resize(static_cast<size_t>(num_increments));
  Rng edit_rng1 = rng.Fork();
  Rng edit_rng2 = rng.Fork();
  BuildSideUpdates(snap1, inc1, num_increments, config.attr_edit_frac,
                   &edit_rng1, &out.increments, &incr::UpdateBatch::kg1);
  BuildSideUpdates(snap2, inc2, num_increments, config.attr_edit_frac,
                   &edit_rng2, &out.increments, &incr::UpdateBatch::kg2);

  // Base truth: every ground-truth pair whose two sides are both in the
  // base state, resolved to base-graph ids.
  for (const auto& [e1, e2] : full.ground_truth) {
    if (inc1[static_cast<size_t>(e1)] != 0 ||
        inc2[static_cast<size_t>(e2)] != 0) {
      continue;
    }
    Result<kg::EntityId> b1 = out.kg1.FindEntity(full.kg1.entity_name(e1));
    Result<kg::EntityId> b2 = out.kg2.FindEntity(full.kg2.entity_name(e2));
    if (b1.ok() && b2.ok()) {
      out.base_truth.emplace_back(b1.value(), b2.value());
    }
  }
  return out;
}

std::vector<std::pair<kg::EntityId, kg::EntityId>> ResolveNamePairs(
    const kg::KnowledgeGraph& kg1, const kg::KnowledgeGraph& kg2,
    const std::vector<std::pair<std::string, std::string>>& names) {
  std::vector<std::pair<kg::EntityId, kg::EntityId>> out;
  out.reserve(names.size());
  for (const auto& [n1, n2] : names) {
    Result<kg::EntityId> e1 = kg1.FindEntity(n1);
    Result<kg::EntityId> e2 = kg2.FindEntity(n2);
    if (e1.ok() && e2.ok()) out.emplace_back(e1.value(), e2.value());
  }
  return out;
}

StreamingSpec StreamingPreset() {
  StreamingSpec spec;
  spec.id = "d_stream";
  spec.config.base.name = "d_stream";
  spec.config.base.seed = 4242;
  spec.config.base.num_matched = 900;
  spec.config.base.extra_entity_frac = 0.2;
  spec.config.base.kg2_name_mode = NameMode::kTranslated;
  spec.config.base.pretrain_sentences = 0;  // structural pipeline only
  spec.config.num_increments = 10;
  spec.config.stream_frac = 0.1;
  spec.config.attr_edit_frac = 0.005;
  spec.config.stream_seed = 7;
  return spec;
}

}  // namespace sdea::datagen
