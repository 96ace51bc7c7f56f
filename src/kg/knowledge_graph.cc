#include "kg/knowledge_graph.h"

#include "base/check.h"
#include "base/fileio.h"
#include "base/rng.h"
#include "base/strings.h"

namespace sdea::kg {
namespace {

bool HasTsvBreakingChars(const std::string& s) {
  return s.find_first_of("\t\n\r") != std::string::npos;
}

}  // namespace

KnowledgeGraph::KnowledgeGraph()
    : store_(std::make_unique<ColumnarKgStore>()) {}

KnowledgeGraph::KnowledgeGraph(const ColumnarOptions& options)
    : store_(std::make_unique<ColumnarKgStore>(options)) {}

KnowledgeGraph KnowledgeGraph::Clone() const {
  const KgSnapshot snap = Snapshot();
  KnowledgeGraph out(store_->options());
  out.BeginBulkLoad();
  for (EntityId e = 0; e < snap.num_entities(); ++e) {
    out.AddEntity(snap.entity_name(e));
  }
  for (RelationId r = 0; r < snap.num_relations(); ++r) {
    out.AddRelation(snap.relation_name(r));
  }
  for (AttributeId a = 0; a < snap.num_attributes(); ++a) {
    out.AddAttribute(snap.attribute_name(a));
  }
  snap.ForEachRelational(
      [&](int64_t /*row*/, EntityId h, RelationId r, EntityId t) {
        out.AddRelationalTriple(h, r, t);
      });
  snap.ForEachAttribute([&](int64_t /*row*/, EntityId e, AttributeId a,
                            const std::string& value) {
    out.AddAttributeTriple(e, a, value);
  });
  out.EndBulkLoad();
  return out;
}

void KnowledgeGraph::MaybeCommit() {
  if (!bulk_load_) store_->Commit();
}

void KnowledgeGraph::BeginBulkLoad() { bulk_load_ = true; }

void KnowledgeGraph::EndBulkLoad() {
  bulk_load_ = false;
  store_->Commit();
}

EntityId KnowledgeGraph::AddEntity(const std::string& name) {
  auto it = entity_ids_.find(name);
  if (it != entity_ids_.end()) return it->second;
  const EntityId id = store_->AppendEntityName(name);
  entity_ids_.emplace(name, id);
  MaybeCommit();
  return id;
}

RelationId KnowledgeGraph::AddRelation(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  const RelationId id = store_->AppendRelationName(name);
  relation_ids_.emplace(name, id);
  MaybeCommit();
  return id;
}

AttributeId KnowledgeGraph::AddAttribute(const std::string& name) {
  auto it = attribute_ids_.find(name);
  if (it != attribute_ids_.end()) return it->second;
  const AttributeId id = store_->AppendAttributeName(name);
  attribute_ids_.emplace(name, id);
  MaybeCommit();
  return id;
}

void KnowledgeGraph::AddRelationalTriple(EntityId head, RelationId relation,
                                         EntityId tail) {
  SDEA_CHECK(head >= 0 && head < num_entities());
  SDEA_CHECK(tail >= 0 && tail < num_entities());
  SDEA_CHECK(relation >= 0 && relation < num_relations());
  store_->AppendRelational(head, relation, tail);
  MaybeCommit();
}

void KnowledgeGraph::AddAttributeTriple(EntityId entity,
                                        AttributeId attribute,
                                        std::string value) {
  SDEA_CHECK(entity >= 0 && entity < num_entities());
  SDEA_CHECK(attribute >= 0 && attribute < num_attributes());
  store_->AppendAttribute(entity, attribute, std::move(value));
  MaybeCommit();
}

Result<EntityId> KnowledgeGraph::FindEntity(const std::string& name) const {
  auto it = entity_ids_.find(name);
  if (it == entity_ids_.end()) {
    return Status::NotFound("entity not found: " + name);
  }
  return it->second;
}

Result<RelationId> KnowledgeGraph::FindRelation(
    const std::string& name) const {
  auto it = relation_ids_.find(name);
  if (it == relation_ids_.end()) {
    return Status::NotFound("relation not found: " + name);
  }
  return it->second;
}

Result<AttributeId> KnowledgeGraph::FindAttribute(
    const std::string& name) const {
  auto it = attribute_ids_.find(name);
  if (it == attribute_ids_.end()) {
    return Status::NotFound("attribute not found: " + name);
  }
  return it->second;
}

KgStatistics KnowledgeGraph::ComputeStatistics() const {
  const KgSnapshot snap = Snapshot();
  KgStatistics s;
  s.num_entities = snap.num_entities();
  s.num_relations = snap.num_relations();
  s.num_attributes = snap.num_attributes();
  s.num_relational_triples = snap.num_relational_triples();
  s.num_attribute_triples = snap.num_attribute_triples();
  int64_t with_edges = 0, le3 = 0, le5 = 0, le10 = 0;
  for (const int64_t d : snap.Degrees()) {
    if (d == 0) continue;
    ++with_edges;
    if (d <= 3) ++le3;
    if (d <= 5) ++le5;
    if (d <= 10) ++le10;
  }
  if (with_edges > 0) {
    s.degree_le3 = static_cast<double>(le3) / with_edges;
    s.degree_le5 = static_cast<double>(le5) / with_edges;
    s.degree_le10 = static_cast<double>(le10) / with_edges;
  }
  return s;
}

Status KnowledgeGraph::SaveTsv(const std::string& prefix) const {
  const KgSnapshot snap = Snapshot();
  // Names become unescaped key fields in both files; a tab or newline in a
  // name cannot be written compatibly, so reject it up front rather than
  // corrupt the row structure.
  for (EntityId e = 0; e < snap.num_entities(); ++e) {
    if (HasTsvBreakingChars(snap.entity_name(e))) {
      return Status::InvalidArgument(
          "entity name contains tab/newline, not representable in TSV: " +
          snap.entity_name(e));
    }
  }
  for (RelationId r = 0; r < snap.num_relations(); ++r) {
    if (HasTsvBreakingChars(snap.relation_name(r))) {
      return Status::InvalidArgument(
          "relation name contains tab/newline, not representable in TSV: " +
          snap.relation_name(r));
    }
  }
  for (AttributeId a = 0; a < snap.num_attributes(); ++a) {
    if (HasTsvBreakingChars(snap.attribute_name(a))) {
      return Status::InvalidArgument(
          "attribute name contains tab/newline, not representable in TSV: " +
          snap.attribute_name(a));
    }
  }
  std::vector<std::vector<std::string>> rel_rows;
  rel_rows.reserve(static_cast<size_t>(snap.num_relational_triples()));
  snap.ForEachRelational(
      [&](int64_t /*row*/, EntityId h, RelationId r, EntityId t) {
        rel_rows.push_back({snap.entity_name(h), snap.relation_name(r),
                            snap.entity_name(t)});
      });
  SDEA_RETURN_IF_ERROR(WriteTsv(prefix + "_rel_triples", rel_rows));
  std::vector<std::vector<std::string>> attr_rows;
  attr_rows.reserve(static_cast<size_t>(snap.num_attribute_triples()));
  snap.ForEachAttribute([&](int64_t /*row*/, EntityId e, AttributeId a,
                            const std::string& value) {
    attr_rows.push_back({snap.entity_name(e), snap.attribute_name(a),
                         EscapeTsvField(value)});
  });
  return WriteTsv(prefix + "_attr_triples", attr_rows);
}

Result<KnowledgeGraph> KnowledgeGraph::LoadTsv(const std::string& prefix,
                                               bool require_attributes) {
  KnowledgeGraph g;
  g.BeginBulkLoad();
  SDEA_ASSIGN_OR_RETURN(auto rel_rows, ReadTsv(prefix + "_rel_triples"));
  for (const auto& row : rel_rows) {
    if (row.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("bad relational triple row with %zu fields", row.size()));
    }
    const EntityId h = g.AddEntity(row[0]);
    const RelationId r = g.AddRelation(row[1]);
    const EntityId t = g.AddEntity(row[2]);
    g.AddRelationalTriple(h, r, t);
  }
  const std::string attr_path = prefix + "_attr_triples";
  if (!FileExists(attr_path)) {
    if (require_attributes) {
      return Status::NotFound("missing attribute triples: " + attr_path);
    }
    g.EndBulkLoad();
    return g;
  }
  SDEA_ASSIGN_OR_RETURN(auto attr_rows, ReadTsv(attr_path));
  for (const auto& row : attr_rows) {
    if (row.size() < 3) {
      return Status::InvalidArgument(
          StrFormat("bad attribute triple row with %zu fields", row.size()));
    }
    const EntityId e = g.AddEntity(row[0]);
    const AttributeId a = g.AddAttribute(row[1]);
    // Files written by the escaping SaveTsv always have exactly 3 fields.
    // Pre-escaping files could carry raw tabs in free-text values that
    // Split broke apart; keep the legacy re-join (with spaces) for those.
    std::string value = row[2];
    for (size_t i = 3; i < row.size(); ++i) {
      value += ' ';
      value += row[i];
    }
    g.AddAttributeTriple(e, a, UnescapeTsvField(value));
  }
  g.EndBulkLoad();
  return g;
}

AlignmentSeeds AlignmentSeeds::Split(
    std::vector<std::pair<EntityId, EntityId>> pairs, uint64_t seed,
    double train_ratio, double valid_ratio, double test_ratio) {
  Rng rng(seed);
  rng.Shuffle(&pairs);
  const double total = train_ratio + valid_ratio + test_ratio;
  SDEA_CHECK_GT(total, 0.0);
  const size_t n = pairs.size();
  const size_t n_train =
      static_cast<size_t>(static_cast<double>(n) * train_ratio / total);
  const size_t n_valid =
      static_cast<size_t>(static_cast<double>(n) * valid_ratio / total);
  AlignmentSeeds out;
  out.train.assign(pairs.begin(), pairs.begin() + n_train);
  out.valid.assign(pairs.begin() + n_train,
                   pairs.begin() + n_train + n_valid);
  out.test.assign(pairs.begin() + n_train + n_valid, pairs.end());
  return out;
}

}  // namespace sdea::kg
