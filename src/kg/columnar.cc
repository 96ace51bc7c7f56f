#include "kg/columnar.h"

#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace sdea::kg {
namespace {

/// [lo, hi) over a permutation index `perm` (local rows sorted by
/// (column[row], row)) such that column[perm[k]] == value.
template <typename Col, typename Val>
std::pair<const int32_t*, const int32_t*> EqualRange(
    const std::vector<int32_t>& perm, const Col& column, Val value) {
  const int32_t* lo = std::lower_bound(
      perm.data(), perm.data() + perm.size(), value,
      [&](int32_t idx, Val v) { return column[static_cast<size_t>(idx)] < v; });
  const int32_t* hi = std::upper_bound(
      lo, perm.data() + perm.size(), value,
      [&](Val v, int32_t idx) { return v < column[static_cast<size_t>(idx)]; });
  return {lo, hi};
}

int64_t StringHeapBytes(const std::string& s) {
  // Rough model: object header plus heap allocation past the SSO buffer.
  return static_cast<int64_t>(sizeof(std::string)) +
         (s.size() > sizeof(std::string)
              ? static_cast<int64_t>(s.capacity())
              : 0);
}

}  // namespace

// ---- KgSnapshot -------------------------------------------------------------

std::vector<NeighborEdge> KgSnapshot::NeighborsOf(EntityId e) const {
  std::vector<NeighborEdge> out;
  if (e < 0 || e >= n_entities_ || rel_chunks_ == nullptr) return out;
  for (const auto& chunk : *rel_chunks_) {
    const int64_t visible = VisibleRows(*chunk, rel_rows_);
    if (visible <= 0) break;
    if (visible == chunk->capacity) {
      // Sealed: merge the by_head and by_tail ranges by local row so edges
      // come out in insertion order, the head's outgoing edge first when a
      // self-loop puts both on the same row (matching the legacy adjacency
      // push order in AddRelationalTriple).
      auto [hl, hh] = EqualRange(chunk->by_head, chunk->head, e);
      auto [tl, th] = EqualRange(chunk->by_tail, chunk->tail, e);
      while (hl != hh || tl != th) {
        const int32_t hr = hl != hh ? *hl : INT32_MAX;
        const int32_t tr = tl != th ? *tl : INT32_MAX;
        if (hr <= tr) {
          out.push_back(NeighborEdge{
              chunk->relation[static_cast<size_t>(hr)],
              chunk->tail[static_cast<size_t>(hr)], /*outgoing=*/true});
          ++hl;
        } else {
          out.push_back(NeighborEdge{
              chunk->relation[static_cast<size_t>(tr)],
              chunk->head[static_cast<size_t>(tr)], /*outgoing=*/false});
          ++tl;
        }
      }
    } else {
      for (int64_t i = 0; i < visible; ++i) {
        const auto idx = static_cast<size_t>(i);
        if (chunk->head[idx] == e) {
          out.push_back(NeighborEdge{chunk->relation[idx], chunk->tail[idx],
                                     /*outgoing=*/true});
        }
        if (chunk->tail[idx] == e) {
          out.push_back(NeighborEdge{chunk->relation[idx], chunk->head[idx],
                                     /*outgoing=*/false});
        }
      }
    }
  }
  return out;
}

int64_t KgSnapshot::DegreeOf(EntityId e) const {
  if (e < 0 || e >= n_entities_ || rel_chunks_ == nullptr) return 0;
  int64_t degree = 0;
  for (const auto& chunk : *rel_chunks_) {
    const int64_t visible = VisibleRows(*chunk, rel_rows_);
    if (visible <= 0) break;
    if (visible == chunk->capacity) {
      auto [hl, hh] = EqualRange(chunk->by_head, chunk->head, e);
      auto [tl, th] = EqualRange(chunk->by_tail, chunk->tail, e);
      degree += (hh - hl) + (th - tl);
    } else {
      for (int64_t i = 0; i < visible; ++i) {
        const auto idx = static_cast<size_t>(i);
        if (chunk->head[idx] == e) ++degree;
        if (chunk->tail[idx] == e) ++degree;
      }
    }
  }
  return degree;
}

std::vector<int64_t> KgSnapshot::Degrees() const {
  std::vector<int64_t> degrees(static_cast<size_t>(n_entities_), 0);
  ForEachRelational(
      [&](int64_t /*row*/, EntityId h, RelationId /*r*/, EntityId t) {
        ++degrees[static_cast<size_t>(h)];
        ++degrees[static_cast<size_t>(t)];
      });
  return degrees;
}

std::vector<int64_t> KgSnapshot::AttributeRowsOf(EntityId e) const {
  std::vector<int64_t> out;
  if (e < 0 || e >= n_entities_ || attr_chunks_ == nullptr) return out;
  for (const auto& chunk : *attr_chunks_) {
    const int64_t visible = VisibleRows(*chunk, attr_rows_);
    if (visible <= 0) break;
    if (visible == chunk->capacity) {
      auto [lo, hi] = EqualRange(chunk->by_entity, chunk->entity, e);
      for (const int32_t* p = lo; p != hi; ++p) {
        out.push_back(chunk->base_row + *p);
      }
    } else {
      for (int64_t i = 0; i < visible; ++i) {
        if (chunk->entity[static_cast<size_t>(i)] == e) {
          out.push_back(chunk->base_row + i);
        }
      }
    }
  }
  return out;
}

Result<KgDiff> KgSnapshot::DiffSince(uint64_t base_epoch) const {
  if (base_epoch > epoch_) {
    return Status::InvalidArgument(
        "DiffSince: base epoch " + std::to_string(base_epoch) +
        " is newer than snapshot epoch " + std::to_string(epoch_));
  }
  KgDiff d;
  d.base_epoch = base_epoch;
  d.epoch = epoch_;
  // The baseline watermarks: epoch 0 is the empty store; otherwise read the
  // journal. The snapshot's own watermarks are the mark of `epoch_`, so the
  // newer side needs no lookup.
  CommitMark base;
  if (base_epoch > 0) base = MarkAt(base_epoch);
  d.entity_begin = base.entities;
  d.entity_end = n_entities_;
  d.relation_begin = base.relations;
  d.relation_end = n_relations_;
  d.attribute_begin = base.attributes;
  d.attribute_end = n_attributes_;
  d.rel_row_begin = base.rel_rows;
  d.rel_row_end = rel_rows_;
  d.attr_row_begin = base.attr_rows;
  d.attr_row_end = attr_rows_;
  return d;
}

std::vector<EntityId> KgSnapshot::TouchedEntities(const KgDiff& diff) const {
  std::vector<EntityId> out;
  out.reserve(static_cast<size_t>(diff.num_new_entities() +
                                  2 * diff.num_new_rel_rows() +
                                  diff.num_new_attr_rows()));
  ForEachRelationalRange(diff.rel_row_begin, diff.rel_row_end,
                         [&](int64_t, EntityId h, RelationId, EntityId t) {
                           out.push_back(h);
                           out.push_back(t);
                         });
  ForEachAttributeRange(
      diff.attr_row_begin, diff.attr_row_end,
      [&](int64_t, EntityId e, AttributeId, const std::string&) {
        out.push_back(e);
      });
  for (int64_t e = diff.entity_begin; e < diff.entity_end; ++e) {
    out.push_back(static_cast<EntityId>(e));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---- ColumnarKgStore --------------------------------------------------------

ColumnarKgStore::ColumnarKgStore(const ColumnarOptions& options)
    : opts_(options) {
  SDEA_CHECK(opts_.rel_chunk_rows > 0);
  SDEA_CHECK(opts_.attr_chunk_rows > 0);
  SDEA_CHECK(opts_.name_chunk_rows > 0);
  rel_chunks_ = std::make_shared<const RelChunkList>();
  attr_chunks_ = std::make_shared<const AttrChunkList>();
  entity_names_ = std::make_shared<const NameChunkList>();
  relation_names_ = std::make_shared<const NameChunkList>();
  attribute_names_ = std::make_shared<const NameChunkList>();
  marks_ = std::make_shared<const MarkChunkList>();
  head_.marks_ = marks_;
  head_.rel_cap_ = opts_.rel_chunk_rows;
  head_.attr_cap_ = opts_.attr_chunk_rows;
  head_.name_cap_ = opts_.name_chunk_rows;
}

EntityId ColumnarKgStore::AppendName(
    std::shared_ptr<const NameChunkList>* list, int64_t* count,
    std::string name) {
  const int64_t id = *count;
  const int64_t cap = opts_.name_chunk_rows;
  if (id % cap == 0) {
    auto chunk = std::make_shared<NameChunk>();
    chunk->base = id;
    chunk->slots.resize(static_cast<size_t>(cap));
    auto grown = std::make_shared<NameChunkList>(**list);
    grown->push_back(std::move(chunk));
    *list = std::move(grown);
  }
  (*list)->back()->slots[static_cast<size_t>(id % cap)] = std::move(name);
  ++*count;
  return static_cast<EntityId>(id);
}

EntityId ColumnarKgStore::AppendEntityName(std::string name) {
  return AppendName(&entity_names_, &appended_entities_, std::move(name));
}

RelationId ColumnarKgStore::AppendRelationName(std::string name) {
  return AppendName(&relation_names_, &appended_relations_, std::move(name));
}

AttributeId ColumnarKgStore::AppendAttributeName(std::string name) {
  return AppendName(&attribute_names_, &appended_attributes_,
                    std::move(name));
}

void ColumnarKgStore::AppendRelational(EntityId head, RelationId relation,
                                       EntityId tail) {
  SDEA_CHECK(head >= 0 && head < appended_entities_);
  SDEA_CHECK(tail >= 0 && tail < appended_entities_);
  SDEA_CHECK(relation >= 0 && relation < appended_relations_);
  const int64_t cap = opts_.rel_chunk_rows;
  const int64_t row = appended_rel_rows_;
  if (row % cap == 0) {
    auto chunk = std::make_shared<RelationalChunk>();
    chunk->base_row = row;
    chunk->capacity = cap;
    chunk->head.resize(static_cast<size_t>(cap));
    chunk->relation.resize(static_cast<size_t>(cap));
    chunk->tail.resize(static_cast<size_t>(cap));
    auto grown = std::make_shared<RelChunkList>(*rel_chunks_);
    grown->push_back(std::move(chunk));
    rel_chunks_ = std::move(grown);
  }
  RelationalChunk* chunk = rel_chunks_->back().get();
  const auto i = static_cast<size_t>(row - chunk->base_row);
  chunk->head[i] = head;
  chunk->relation[i] = relation;
  chunk->tail[i] = tail;
  ++appended_rel_rows_;
  // Seal on fill, before any commit can make the last row visible: readers
  // that observe a fully covered chunk may then use its indexes lock-free.
  if (static_cast<int64_t>(i) + 1 == cap) SealRelChunk(chunk);
}

void ColumnarKgStore::AppendAttribute(EntityId entity, AttributeId attribute,
                                      std::string value) {
  SDEA_CHECK(entity >= 0 && entity < appended_entities_);
  SDEA_CHECK(attribute >= 0 && attribute < appended_attributes_);
  const int64_t cap = opts_.attr_chunk_rows;
  const int64_t row = appended_attr_rows_;
  if (row % cap == 0) {
    auto chunk = std::make_shared<AttributeChunk>();
    chunk->base_row = row;
    chunk->capacity = cap;
    chunk->entity.resize(static_cast<size_t>(cap));
    chunk->attribute.resize(static_cast<size_t>(cap));
    chunk->values.resize(static_cast<size_t>(cap));
    auto grown = std::make_shared<AttrChunkList>(*attr_chunks_);
    grown->push_back(std::move(chunk));
    attr_chunks_ = std::move(grown);
  }
  AttributeChunk* chunk = attr_chunks_->back().get();
  const auto i = static_cast<size_t>(row - chunk->base_row);
  chunk->entity[i] = entity;
  chunk->attribute[i] = attribute;
  chunk->values[i] = std::move(value);
  ++appended_attr_rows_;
  if (static_cast<int64_t>(i) + 1 == cap) {
    // Attribute sealing re-encodes values, so it builds a fresh immutable
    // chunk and swaps it into a new list; the plain open object stays
    // alive for commits that pinned it partially filled.
    auto sealed = SealAttrChunk(*chunk);
    auto swapped = std::make_shared<AttrChunkList>(*attr_chunks_);
    swapped->back() = std::move(sealed);
    attr_chunks_ = std::move(swapped);
  }
}

void ColumnarKgStore::SealRelChunk(RelationalChunk* chunk) {
  const auto n = static_cast<size_t>(chunk->capacity);
  chunk->by_head.resize(n);
  std::iota(chunk->by_head.begin(), chunk->by_head.end(), 0);
  std::sort(chunk->by_head.begin(), chunk->by_head.end(),
            [&](int32_t a, int32_t b) {
              const EntityId ha = chunk->head[static_cast<size_t>(a)];
              const EntityId hb = chunk->head[static_cast<size_t>(b)];
              if (ha != hb) return ha < hb;
              return a < b;
            });
  chunk->by_tail.resize(n);
  std::iota(chunk->by_tail.begin(), chunk->by_tail.end(), 0);
  std::sort(chunk->by_tail.begin(), chunk->by_tail.end(),
            [&](int32_t a, int32_t b) {
              const EntityId ta = chunk->tail[static_cast<size_t>(a)];
              const EntityId tb = chunk->tail[static_cast<size_t>(b)];
              if (ta != tb) return ta < tb;
              return a < b;
            });
}

std::shared_ptr<AttributeChunk> ColumnarKgStore::SealAttrChunk(
    const AttributeChunk& open) {
  auto sealed = std::make_shared<AttributeChunk>();
  sealed->base_row = open.base_row;
  sealed->capacity = open.capacity;
  sealed->entity = open.entity;
  sealed->attribute = open.attribute;

  const auto n = static_cast<size_t>(open.capacity);
  std::vector<uint32_t> codes(n);
  std::vector<const std::string*> distinct;
  std::unordered_map<std::string_view, uint32_t> first_code;
  first_code.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = first_code.try_emplace(
        std::string_view(open.values[i]),
        static_cast<uint32_t>(distinct.size()));
    if (inserted) distinct.push_back(&open.values[i]);
    codes[i] = it->second;
  }
  if (static_cast<int64_t>(distinct.size()) * 100 <=
      open.capacity * opts_.dict_max_distinct_pct) {
    sealed->dict.reserve(distinct.size());
    for (const std::string* v : distinct) sealed->dict.push_back(*v);
    sealed->codes = std::move(codes);
  } else {
    sealed->values = open.values;
  }

  sealed->by_entity.resize(n);
  std::iota(sealed->by_entity.begin(), sealed->by_entity.end(), 0);
  std::sort(sealed->by_entity.begin(), sealed->by_entity.end(),
            [&](int32_t a, int32_t b) {
              const EntityId ea = sealed->entity[static_cast<size_t>(a)];
              const EntityId eb = sealed->entity[static_cast<size_t>(b)];
              if (ea != eb) return ea < eb;
              return a < b;
            });
  return sealed;
}

void ColumnarKgStore::AppendMarkLocked(uint64_t epoch) {
  // Journal slot for `epoch` (index epoch-1). Growth is copy-on-write so
  // pinned snapshots keep their exact chunk set; filling a preallocated
  // slot below the about-to-publish epoch is the NameChunk protocol.
  const auto idx = static_cast<int64_t>(epoch - 1);
  if (idx % kMarkChunkRows == 0) {
    auto chunk = std::make_shared<MarkChunk>();
    chunk->slots.resize(static_cast<size_t>(kMarkChunkRows));
    auto grown = std::make_shared<MarkChunkList>(*marks_);
    grown->push_back(std::move(chunk));
    marks_ = std::move(grown);
  }
  CommitMark& mark =
      marks_->back()->slots[static_cast<size_t>(idx % kMarkChunkRows)];
  mark.entities = appended_entities_;
  mark.relations = appended_relations_;
  mark.attributes = appended_attributes_;
  mark.rel_rows = appended_rel_rows_;
  mark.attr_rows = appended_attr_rows_;
}

uint64_t ColumnarKgStore::Commit() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  head_.epoch_ = next_epoch_++;
  AppendMarkLocked(head_.epoch_);
  head_.marks_ = marks_;
  head_.n_entities_ = appended_entities_;
  head_.n_relations_ = appended_relations_;
  head_.n_attributes_ = appended_attributes_;
  head_.rel_rows_ = appended_rel_rows_;
  head_.attr_rows_ = appended_attr_rows_;
  head_.rel_chunks_ = rel_chunks_;
  head_.attr_chunks_ = attr_chunks_;
  head_.entity_names_ = entity_names_;
  head_.relation_names_ = relation_names_;
  head_.attribute_names_ = attribute_names_;
  return head_.epoch_;
}

KgSnapshot ColumnarKgStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return head_;
}

const std::string& ColumnarKgStore::LatestEntityName(EntityId id) const {
  SDEA_CHECK(id >= 0 && id < appended_entities_);
  return KgSnapshot::NameAt(*entity_names_, opts_.name_chunk_rows, id);
}

const std::string& ColumnarKgStore::LatestRelationName(RelationId id) const {
  SDEA_CHECK(id >= 0 && id < appended_relations_);
  return KgSnapshot::NameAt(*relation_names_, opts_.name_chunk_rows, id);
}

const std::string& ColumnarKgStore::LatestAttributeName(
    AttributeId id) const {
  SDEA_CHECK(id >= 0 && id < appended_attributes_);
  return KgSnapshot::NameAt(*attribute_names_, opts_.name_chunk_rows, id);
}

int64_t ColumnarKgStore::ApproxHeapBytes() const {
  int64_t bytes = 0;
  for (const auto& chunk : *rel_chunks_) {
    bytes += chunk->capacity * 12;
    bytes += static_cast<int64_t>(chunk->by_head.size() +
                                  chunk->by_tail.size()) *
             4;
  }
  for (const auto& chunk : *attr_chunks_) {
    bytes += chunk->capacity * 8;
    bytes += static_cast<int64_t>(chunk->by_entity.size() +
                                  chunk->codes.size()) *
             4;
    for (const std::string& v : chunk->values) bytes += StringHeapBytes(v);
    for (const std::string& v : chunk->dict) bytes += StringHeapBytes(v);
  }
  for (const auto* list :
       {&entity_names_, &relation_names_, &attribute_names_}) {
    for (const auto& chunk : **list) {
      for (const std::string& s : chunk->slots) bytes += StringHeapBytes(s);
    }
  }
  bytes += static_cast<int64_t>(marks_->size()) * kMarkChunkRows *
           static_cast<int64_t>(sizeof(CommitMark));
  return bytes;
}

}  // namespace sdea::kg
