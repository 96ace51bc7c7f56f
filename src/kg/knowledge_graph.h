#ifndef SDEA_KG_KNOWLEDGE_GRAPH_H_
#define SDEA_KG_KNOWLEDGE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "kg/columnar.h"
#include "kg/types.h"

namespace sdea::kg {

/// Summary statistics used by Table I / Table VI style reporting.
struct KgStatistics {
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  int64_t num_attributes = 0;
  int64_t num_relational_triples = 0;
  int64_t num_attribute_triples = 0;
  /// Proportion of entities with relational degree in [1, k] for k=3,5,10
  /// (entities with degree 0 excluded from the denominator, matching the
  /// paper's Table VI which ranges start at 1).
  double degree_le3 = 0.0;
  double degree_le5 = 0.0;
  double degree_le10 = 0.0;
};

/// One knowledge graph KG = {E, R, A, V, Tr, Ta} (Definition 1), stored as
/// a columnar MVCC store (ColumnarKgStore): entities/relations/attributes
/// are interned to dense ids, and triples live in chunked dense-id columns
/// with epoch-versioned snapshot visibility.
///
/// This class is the single-writer facade. Triples are read one way only,
/// through a KgSnapshot pinned with Snapshot(): scans use
/// ForEachRelational/ForEachAttribute, lookups use RelationalAt,
/// AttributeIdsAt, ValueAt, NeighborsOf, DegreeOf and AttributeRowsOf.
/// Snapshots are immutable watermark-prefixes of the committed graph and
/// stay consistent while the writer keeps adding, so any thread may pin
/// and scan one at any time. The other const members (counts, names,
/// Find*, the whole-graph readers) mutate nothing: many threads may call
/// them at once, but not concurrently with the writer.
///
/// Each Add* publishes a commit, so Snapshot() always reflects every prior
/// Add. Bulk construction (loaders, the generator) brackets its adds with
/// BeginBulkLoad()/EndBulkLoad() to defer commits to one publish at the
/// end. The whole-graph readers (Clone, ComputeStatistics, SaveTsv and
/// the binary encoders) pin one snapshot each, so they see the last
/// commit: inside a bulk-load bracket they miss the rows added since
/// BeginBulkLoad(). Call them after EndBulkLoad().
class KnowledgeGraph {
 public:
  KnowledgeGraph();
  explicit KnowledgeGraph(const ColumnarOptions& options);

  // Movable (large), not copyable by accident.
  KnowledgeGraph(KnowledgeGraph&&) = default;
  KnowledgeGraph& operator=(KnowledgeGraph&&) = default;
  KnowledgeGraph(const KnowledgeGraph&) = delete;
  KnowledgeGraph& operator=(const KnowledgeGraph&) = delete;

  /// Explicit deep copy (replays this graph into a fresh store).
  KnowledgeGraph Clone() const;

  // ---- Construction --------------------------------------------------------

  /// Interns an entity by name; returns the existing id if already present.
  EntityId AddEntity(const std::string& name);
  RelationId AddRelation(const std::string& name);
  AttributeId AddAttribute(const std::string& name);

  /// Adds (head, relation, tail). Ids must be valid.
  void AddRelationalTriple(EntityId head, RelationId relation, EntityId tail);

  /// Adds (entity, attribute, value).
  void AddAttributeTriple(EntityId entity, AttributeId attribute,
                          std::string value);

  /// Defers commit publication until EndBulkLoad(): bulk builders avoid a
  /// commit per row. Snapshot() taken mid-bulk pins the last publish.
  void BeginBulkLoad();
  void EndBulkLoad();

  // ---- MVCC ----------------------------------------------------------------

  /// Pins the latest committed state. Safe to call from any thread
  /// concurrently with the writer; scanning the snapshot is lock-free.
  KgSnapshot Snapshot() const { return store_->Snapshot(); }

  /// The underlying columnar store (memory accounting, direct writer use).
  const ColumnarKgStore& columnar() const { return *store_; }

  // ---- Lookup --------------------------------------------------------------

  int64_t num_entities() const { return store_->latest_num_entities(); }
  int64_t num_relations() const { return store_->latest_num_relations(); }
  int64_t num_attributes() const { return store_->latest_num_attributes(); }

  const std::string& entity_name(EntityId id) const {
    return store_->LatestEntityName(id);
  }
  const std::string& relation_name(RelationId id) const {
    return store_->LatestRelationName(id);
  }
  const std::string& attribute_name(AttributeId id) const {
    return store_->LatestAttributeName(id);
  }

  /// Id of the entity with `name`, or NotFound.
  Result<EntityId> FindEntity(const std::string& name) const;
  Result<RelationId> FindRelation(const std::string& name) const;
  Result<AttributeId> FindAttribute(const std::string& name) const;

  /// Computes Table I / Table VI style statistics from one pinned
  /// snapshot (one columnar pass).
  KgStatistics ComputeStatistics() const;

  // ---- Serialization (DBP15K-style TSV layout) ------------------------------

  /// Writes `<prefix>_rel_triples` (head \t relation \t tail, by name) and
  /// `<prefix>_attr_triples` (entity \t attribute \t value). Attribute
  /// values are TSV-escaped (\t, \n, \r, \\), so free-text values with
  /// embedded tabs/newlines round-trip; names containing those characters
  /// cannot be escaped compatibly and are rejected with InvalidArgument.
  Status SaveTsv(const std::string& prefix) const;

  /// Loads a graph written by SaveTsv (unescaping attribute values).
  /// Missing attribute file is an error; pass `require_attributes=false`
  /// for relation-only graphs.
  static Result<KnowledgeGraph> LoadTsv(const std::string& prefix,
                                        bool require_attributes = true);

 private:
  void MaybeCommit();

  std::unique_ptr<ColumnarKgStore> store_;
  bool bulk_load_ = false;

  std::unordered_map<std::string, EntityId> entity_ids_;
  std::unordered_map<std::string, RelationId> relation_ids_;
  std::unordered_map<std::string, AttributeId> attribute_ids_;
};

/// A ground-truth alignment between two KGs plus its 2:1:7 split
/// (train : validation : test), as used throughout the paper's experiments.
struct AlignmentSeeds {
  std::vector<std::pair<EntityId, EntityId>> train;
  std::vector<std::pair<EntityId, EntityId>> valid;
  std::vector<std::pair<EntityId, EntityId>> test;

  int64_t total() const {
    return static_cast<int64_t>(train.size() + valid.size() + test.size());
  }

  /// Shuffles `pairs` with `seed` and splits by the given ratios
  /// (normalized; defaults to the paper's 2:1:7).
  static AlignmentSeeds Split(
      std::vector<std::pair<EntityId, EntityId>> pairs, uint64_t seed,
      double train_ratio = 2.0, double valid_ratio = 1.0,
      double test_ratio = 7.0);
};

}  // namespace sdea::kg

#endif  // SDEA_KG_KNOWLEDGE_GRAPH_H_
