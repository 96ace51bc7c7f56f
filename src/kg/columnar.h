#ifndef SDEA_KG_COLUMNAR_H_
#define SDEA_KG_COLUMNAR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/status.h"
#include "kg/types.h"

namespace sdea::kg {

/// Chunk capacities of the columnar store. The defaults suit real graphs;
/// tests shrink them to force many seal boundaries with tiny inputs.
struct ColumnarOptions {
  int64_t rel_chunk_rows = 4096;   ///< Relational triples per chunk.
  int64_t attr_chunk_rows = 2048;  ///< Attribute triples per chunk.
  int64_t name_chunk_rows = 4096;  ///< Interned names per chunk.
  /// A sealed attribute chunk dictionary-encodes its values when the
  /// distinct count is at most this fraction (in percent) of the row
  /// count; otherwise the chunk stays plain-encoded.
  int64_t dict_max_distinct_pct = 75;
};

// ---- Chunks -----------------------------------------------------------------
//
// MVCC visibility protocol (hyrise-style, single writer, many readers):
//
//  * Every chunk's column arrays are allocated at full capacity up front and
//    never reallocate. The writer fills slots in row order; a slot, once
//    covered by a published commit, is never written again.
//  * Readers never read a chunk's mutable bookkeeping. All visibility comes
//    from the pinned commit's watermarks: a chunk exposes
//    min(capacity, watermark - base_row) rows to a given snapshot.
//  * Seal-time fields (the permutation indexes, and a sealed attribute
//    chunk's dictionary) are only consulted when the pinned watermark covers
//    the whole chunk. The writer builds them *before* publishing the commit
//    that makes the chunk's last row visible, so the commit mutex carries
//    the happens-before edge and the scan itself takes no locks.

/// A fixed-capacity chunk of dense-id relational columns. head/relation/tail
/// are dictionary-encoded globally: the ids index the interned name columns.
struct RelationalChunk {
  int64_t base_row = 0;   ///< Global row id of slot 0. Immutable.
  int64_t capacity = 0;   ///< Slot count. Immutable.
  std::vector<EntityId> head;
  std::vector<RelationId> relation;
  std::vector<EntityId> tail;
  /// Seal-time permutation indexes: local rows sorted by (head[i], i) and
  /// (tail[i], i). Empty while the chunk is open; valid for readers whose
  /// watermark covers the full chunk.
  std::vector<int32_t> by_head;
  std::vector<int32_t> by_tail;
};

/// A fixed-capacity chunk of attribute-triple columns. An *open* chunk
/// stores values plainly in `values`; sealing builds a fresh immutable
/// chunk object whose values are dictionary-encoded when the chunk has
/// enough duplication to pay for it (codes into `dict`), or plain-copied
/// otherwise. The open object stays alive for older pins.
struct AttributeChunk {
  int64_t base_row = 0;
  int64_t capacity = 0;
  std::vector<EntityId> entity;
  std::vector<AttributeId> attribute;
  std::vector<std::string> values;  ///< Plain values (open or sealed-plain).
  std::vector<std::string> dict;    ///< Distinct values, first-occurrence order.
  std::vector<uint32_t> codes;      ///< Per-row dict codes; empty when plain.
  /// Seal-time permutation index: local rows sorted by (entity[i], i).
  std::vector<int32_t> by_entity;

  bool dict_encoded() const { return !codes.empty(); }
  const std::string& value_at(int64_t local) const {
    return codes.empty() ? values[static_cast<size_t>(local)]
                         : dict[codes[static_cast<size_t>(local)]];
  }
};

/// A fixed-capacity chunk of an interned-name column. Name slots below the
/// pinned name watermark are immutable, so `const std::string&` returns
/// stay valid for the life of the store.
struct NameChunk {
  int64_t base = 0;
  std::vector<std::string> slots;
};

using RelChunkList = std::vector<std::shared_ptr<RelationalChunk>>;
using AttrChunkList = std::vector<std::shared_ptr<AttributeChunk>>;
using NameChunkList = std::vector<std::shared_ptr<NameChunk>>;

// ---- Epoch journal ----------------------------------------------------------

/// The watermarks one Commit() published. The store appends one of these to
/// a chunked journal per commit; epoch `e` lives at journal index `e - 1`,
/// so an epoch lookup is direct indexing, never a search.
struct CommitMark {
  int64_t entities = 0;
  int64_t relations = 0;
  int64_t attributes = 0;
  int64_t rel_rows = 0;
  int64_t attr_rows = 0;
};

/// A fixed-capacity chunk of the epoch journal. Slots at indexes below any
/// published epoch are immutable, the same visibility protocol as NameChunk.
struct MarkChunk {
  std::vector<CommitMark> slots;
};

using MarkChunkList = std::vector<std::shared_ptr<MarkChunk>>;

/// Journal chunk capacity. Growth is copy-on-write like the data chunk
/// lists, so a commit is O(1) amortized even for commit-per-triple loads.
/// Slots are preallocated per chunk (stable addresses for lock-free
/// readers), so the capacity is also the journal's idle footprint on a
/// bulk-loaded graph — kept small relative to the data chunks.
inline constexpr int64_t kMarkChunkRows = 256;

/// Everything added between two commits, as five half-open ranges. The
/// store is append-only, so a diff is exactly the id/row suffix the newer
/// epoch added: name rows [.._begin, .._end) for each of the three interned
/// columns, plus the relational and attribute triple row ranges.
struct KgDiff {
  uint64_t base_epoch = 0;  ///< Older epoch (0 = empty-store baseline).
  uint64_t epoch = 0;       ///< Newer epoch (the snapshot the diff is from).
  int64_t entity_begin = 0;
  int64_t entity_end = 0;
  int64_t relation_begin = 0;
  int64_t relation_end = 0;
  int64_t attribute_begin = 0;
  int64_t attribute_end = 0;
  int64_t rel_row_begin = 0;
  int64_t rel_row_end = 0;
  int64_t attr_row_begin = 0;
  int64_t attr_row_end = 0;

  int64_t num_new_entities() const { return entity_end - entity_begin; }
  int64_t num_new_relations() const { return relation_end - relation_begin; }
  int64_t num_new_attributes() const {
    return attribute_end - attribute_begin;
  }
  int64_t num_new_rel_rows() const { return rel_row_end - rel_row_begin; }
  int64_t num_new_attr_rows() const { return attr_row_end - attr_row_begin; }

  bool empty() const {
    return num_new_entities() == 0 && num_new_relations() == 0 &&
           num_new_attributes() == 0 && num_new_rel_rows() == 0 &&
           num_new_attr_rows() == 0;
  }
};

// ---- Snapshot ---------------------------------------------------------------

/// A pinned, immutable view of the store at one commit: the epoch, the
/// watermarks (entity/relation/attribute counts and triple row counts), and
/// shared_ptr'd chunk lists. Pinning is a mutex-guarded copy of ~six
/// shared_ptrs (no allocation); scanning afterwards is lock-free. A
/// snapshot stays valid for as long as the handle lives, even while the
/// writer keeps appending, sealing, and committing — and even after the
/// store itself is destroyed.
///
/// Default-constructed snapshots are empty (zero counts).
class KgSnapshot {
 public:
  KgSnapshot() = default;

  /// Monotonic commit number; 0 for the empty snapshot.
  uint64_t epoch() const { return epoch_; }

  int64_t num_entities() const { return n_entities_; }
  int64_t num_relations() const { return n_relations_; }
  int64_t num_attributes() const { return n_attributes_; }
  int64_t num_relational_triples() const { return rel_rows_; }
  int64_t num_attribute_triples() const { return attr_rows_; }

  const std::string& entity_name(EntityId id) const {
    SDEA_CHECK(id >= 0 && id < n_entities_);
    return NameAt(*entity_names_, name_cap_, id);
  }
  const std::string& relation_name(RelationId id) const {
    SDEA_CHECK(id >= 0 && id < n_relations_);
    return NameAt(*relation_names_, name_cap_, id);
  }
  const std::string& attribute_name(AttributeId id) const {
    SDEA_CHECK(id >= 0 && id < n_attributes_);
    return NameAt(*attribute_names_, name_cap_, id);
  }

  /// Visits every visible relational triple in row order:
  /// fn(row, head, relation, tail). The loop reads raw column pointers —
  /// this is the chunk-iterating scan every migrated hot path runs on.
  template <typename Fn>
  void ForEachRelational(Fn&& fn) const {
    if (rel_chunks_ == nullptr) return;
    for (const auto& chunk : *rel_chunks_) {
      const int64_t visible = VisibleRows(*chunk, rel_rows_);
      if (visible <= 0) break;
      const EntityId* h = chunk->head.data();
      const RelationId* r = chunk->relation.data();
      const EntityId* t = chunk->tail.data();
      const int64_t base = chunk->base_row;
      for (int64_t i = 0; i < visible; ++i) {
        fn(base + i, h[i], r[i], t[i]);
      }
    }
  }

  /// Visits visible relational triples with row in [begin, end), in row
  /// order: fn(row, head, relation, tail). `end` is clamped to the
  /// snapshot's watermark. Chunks before `begin` are skipped by index, so
  /// visiting a diff suffix costs O(rows visited), not O(total rows).
  template <typename Fn>
  void ForEachRelationalRange(int64_t begin, int64_t end, Fn&& fn) const {
    if (rel_chunks_ == nullptr) return;
    end = std::min(end, rel_rows_);
    begin = std::max<int64_t>(begin, 0);
    if (begin >= end) return;
    for (auto ci = static_cast<size_t>(ChunkIndex(begin, rel_cap_));
         ci < rel_chunks_->size(); ++ci) {
      const RelationalChunk& chunk = *(*rel_chunks_)[ci];
      if (chunk.base_row >= end) break;
      const int64_t first = std::max<int64_t>(0, begin - chunk.base_row);
      const int64_t last = std::min(chunk.capacity, end - chunk.base_row);
      const EntityId* h = chunk.head.data();
      const RelationId* r = chunk.relation.data();
      const EntityId* t = chunk.tail.data();
      for (int64_t i = first; i < last; ++i) {
        fn(chunk.base_row + i, h[i], r[i], t[i]);
      }
    }
  }

  /// Visits every visible attribute triple in row order:
  /// fn(row, entity, attribute, const std::string& value).
  template <typename Fn>
  void ForEachAttribute(Fn&& fn) const {
    if (attr_chunks_ == nullptr) return;
    for (const auto& chunk : *attr_chunks_) {
      const int64_t visible = VisibleRows(*chunk, attr_rows_);
      if (visible <= 0) break;
      const EntityId* e = chunk->entity.data();
      const AttributeId* a = chunk->attribute.data();
      const int64_t base = chunk->base_row;
      for (int64_t i = 0; i < visible; ++i) {
        fn(base + i, e[i], a[i], chunk->value_at(i));
      }
    }
  }

  /// Visits visible attribute triples with row in [begin, end):
  /// fn(row, entity, attribute, const std::string& value).
  template <typename Fn>
  void ForEachAttributeRange(int64_t begin, int64_t end, Fn&& fn) const {
    if (attr_chunks_ == nullptr) return;
    end = std::min(end, attr_rows_);
    begin = std::max<int64_t>(begin, 0);
    if (begin >= end) return;
    for (auto ci = static_cast<size_t>(ChunkIndex(begin, attr_cap_));
         ci < attr_chunks_->size(); ++ci) {
      const AttributeChunk& chunk = *(*attr_chunks_)[ci];
      if (chunk.base_row >= end) break;
      const int64_t first = std::max<int64_t>(0, begin - chunk.base_row);
      const int64_t last = std::min(chunk.capacity, end - chunk.base_row);
      const EntityId* e = chunk.entity.data();
      const AttributeId* a = chunk.attribute.data();
      for (int64_t i = first; i < last; ++i) {
        fn(chunk.base_row + i, e[i], a[i], chunk.value_at(i));
      }
    }
  }

  /// Everything committed after `base_epoch` and visible here, as half-open
  /// id/row ranges. `base_epoch == 0` diffs against the empty store;
  /// `base_epoch == epoch()` yields an empty diff. Errors with
  /// InvalidArgument when `base_epoch > epoch()` (the baseline must be an
  /// ancestor of this snapshot). Lock-free: the snapshot carries the epoch
  /// journal, so this works even after the store is destroyed.
  Result<KgDiff> DiffSince(uint64_t base_epoch) const;

  /// The distinct entity ids a diff touches: heads and tails of its new
  /// relational rows, entities of its new attribute rows, and the newly
  /// interned entity ids themselves. Sorted ascending, deduplicated. This
  /// is the seed set the incremental aligner expands by k hops.
  std::vector<EntityId> TouchedEntities(const KgDiff& diff) const;

  RelationalTriple RelationalAt(int64_t row) const {
    SDEA_CHECK(row >= 0 && row < rel_rows_);
    const RelationalChunk& c = *(*rel_chunks_)[ChunkIndex(row, rel_cap_)];
    const auto i = static_cast<size_t>(row - c.base_row);
    return RelationalTriple{c.head[i], c.relation[i], c.tail[i]};
  }

  /// The id columns of attribute row `row` (use ValueAt for the value).
  std::pair<EntityId, AttributeId> AttributeIdsAt(int64_t row) const {
    SDEA_CHECK(row >= 0 && row < attr_rows_);
    const AttributeChunk& c = *(*attr_chunks_)[ChunkIndex(row, attr_cap_)];
    const auto i = static_cast<size_t>(row - c.base_row);
    return {c.entity[i], c.attribute[i]};
  }

  /// Value of attribute row `row`; the reference stays valid while any
  /// handle to this snapshot lives.
  const std::string& ValueAt(int64_t row) const {
    SDEA_CHECK(row >= 0 && row < attr_rows_);
    const AttributeChunk& c = *(*attr_chunks_)[ChunkIndex(row, attr_cap_)];
    return c.value_at(row - c.base_row);
  }

  /// Edges incident to `e` (both directions) in insertion order — the exact
  /// order the legacy adjacency lists used: per triple, the head's outgoing
  /// edge precedes the tail's incoming edge. Sealed chunks answer via their
  /// by_head/by_tail indexes; the tail open chunk is scanned linearly.
  /// Out-of-range ids yield an empty vector.
  std::vector<NeighborEdge> NeighborsOf(EntityId e) const;

  /// Relational degree of `e` (incident triple count, both directions,
  /// self-loops counted twice). 0 for out-of-range ids.
  int64_t DegreeOf(EntityId e) const;

  /// DegreeOf for every entity at once, indexed by id: one pass over the
  /// relational rows.
  std::vector<int64_t> Degrees() const;

  /// Global attribute rows of entity `e`, ascending (== insertion order).
  /// Empty for out-of-range ids.
  std::vector<int64_t> AttributeRowsOf(EntityId e) const;

 private:
  friend class ColumnarKgStore;

  template <typename Chunk>
  int64_t VisibleRows(const Chunk& chunk, int64_t watermark) const {
    return std::min<int64_t>(chunk.capacity, watermark - chunk.base_row);
  }
  static int64_t ChunkIndex(int64_t row, int64_t cap) { return row / cap; }
  static const std::string& NameAt(const NameChunkList& chunks, int64_t cap,
                                   int64_t id) {
    return chunks[static_cast<size_t>(id / cap)]
        ->slots[static_cast<size_t>(id % cap)];
  }

  /// The published watermarks of epoch `e` (1 <= e <= epoch_).
  const CommitMark& MarkAt(uint64_t e) const {
    const auto idx = static_cast<int64_t>(e - 1);
    return (*marks_)[static_cast<size_t>(idx / kMarkChunkRows)]
        ->slots[static_cast<size_t>(idx % kMarkChunkRows)];
  }

  uint64_t epoch_ = 0;
  int64_t n_entities_ = 0;
  int64_t n_relations_ = 0;
  int64_t n_attributes_ = 0;
  int64_t rel_rows_ = 0;
  int64_t attr_rows_ = 0;
  int64_t rel_cap_ = 1;
  int64_t attr_cap_ = 1;
  int64_t name_cap_ = 1;
  std::shared_ptr<const RelChunkList> rel_chunks_;
  std::shared_ptr<const AttrChunkList> attr_chunks_;
  std::shared_ptr<const NameChunkList> entity_names_;
  std::shared_ptr<const NameChunkList> relation_names_;
  std::shared_ptr<const NameChunkList> attribute_names_;
  /// Epoch journal (one CommitMark per published epoch). Slots below
  /// epoch_ are immutable; the snapshot only indexes those.
  std::shared_ptr<const MarkChunkList> marks_;
};

// ---- Store ------------------------------------------------------------------

/// The columnar KG store: dictionary-encoded chunked columns with
/// epoch-versioned snapshot visibility.
///
/// Concurrency contract:
///  * Exactly one thread may call the Append*/Commit writer API.
///  * Any number of threads may call Snapshot() concurrently with the
///    writer; each snapshot is a consistent watermark-prefix of everything
///    committed, and scanning it is lock-free.
///  * The latest_num_* counts and Latest*Name views read uncommitted writer
///    state and are writer-thread only: the KnowledgeGraph facade uses them
///    to intern names and check ids while a bulk load is in flight. Triples
///    are read only through snapshots.
///
/// Appends become visible to *new* snapshots only at the next Commit();
/// pinned snapshots never change. Chunk columns are preallocated, so an
/// append never moves committed data; when a chunk fills, the writer seals
/// it (building its scan indexes, and for attribute chunks a
/// dictionary-encoded immutable replacement) before the covering commit is
/// published.
class ColumnarKgStore {
 public:
  explicit ColumnarKgStore(const ColumnarOptions& options = {});
  ColumnarKgStore(const ColumnarKgStore&) = delete;
  ColumnarKgStore& operator=(const ColumnarKgStore&) = delete;

  const ColumnarOptions& options() const { return opts_; }

  // ---- Writer API (single thread) -----------------------------------------

  /// Appends a name; no interning — the caller (facade) deduplicates.
  EntityId AppendEntityName(std::string name);
  RelationId AppendRelationName(std::string name);
  AttributeId AppendAttributeName(std::string name);

  /// Appends (head, relation, tail). Ids must already be appended.
  void AppendRelational(EntityId head, RelationId relation, EntityId tail);

  /// Appends (entity, attribute, value). Ids must already be appended.
  void AppendAttribute(EntityId entity, AttributeId attribute,
                       std::string value);

  /// Publishes everything appended so far as the new head commit and
  /// returns its epoch. O(1): a mutex-guarded copy of the watermarks and
  /// chunk-list pointers — no allocation, sub-microsecond.
  uint64_t Commit();

  // ---- Reader API (any thread) --------------------------------------------

  /// Pins the head commit. Safe concurrently with the writer.
  KgSnapshot Snapshot() const;

  // ---- Writer-latest views (writer thread only) ----------------------------

  int64_t latest_num_entities() const { return appended_entities_; }
  int64_t latest_num_relations() const { return appended_relations_; }
  int64_t latest_num_attributes() const { return appended_attributes_; }

  const std::string& LatestEntityName(EntityId id) const;
  const std::string& LatestRelationName(RelationId id) const;
  const std::string& LatestAttributeName(AttributeId id) const;

  /// Approximate heap footprint of the columnar data (columns, dictionaries,
  /// seal indexes, name chunks) — the numerator of bench_kg's
  /// bytes-per-triple counter.
  int64_t ApproxHeapBytes() const;

 private:
  EntityId AppendName(std::shared_ptr<const NameChunkList>* list,
                      int64_t* count, std::string name);
  void SealRelChunk(RelationalChunk* chunk);
  std::shared_ptr<AttributeChunk> SealAttrChunk(const AttributeChunk& open);
  void AppendMarkLocked(uint64_t epoch);

  const ColumnarOptions opts_;

  // Writer-side working state. The chunk lists are published as
  // shared_ptr<const List>; growing or swapping a chunk makes a fresh list
  // (copy-on-write) so pinned commits keep their exact chunk set.
  std::shared_ptr<const RelChunkList> rel_chunks_;
  std::shared_ptr<const AttrChunkList> attr_chunks_;
  std::shared_ptr<const NameChunkList> entity_names_;
  std::shared_ptr<const NameChunkList> relation_names_;
  std::shared_ptr<const NameChunkList> attribute_names_;
  std::shared_ptr<const MarkChunkList> marks_;

  int64_t appended_entities_ = 0;
  int64_t appended_relations_ = 0;
  int64_t appended_attributes_ = 0;
  int64_t appended_rel_rows_ = 0;
  int64_t appended_attr_rows_ = 0;

  /// Head commit, pinned by Snapshot(). Guarded by commit_mu_; Commit()
  /// assigns it in place (no allocation), Snapshot() copies it out.
  mutable std::mutex commit_mu_;
  KgSnapshot head_;
  uint64_t next_epoch_ = 1;
};

}  // namespace sdea::kg

#endif  // SDEA_KG_COLUMNAR_H_
