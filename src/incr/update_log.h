#ifndef SDEA_INCR_UPDATE_LOG_H_
#define SDEA_INCR_UPDATE_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "kg/knowledge_graph.h"

namespace sdea::incr {

// Streamed KG updates are *name-based*: a batch carries entity / relation /
// attribute names, not dense ids, so the same batch replays identically
// into a freshly loaded graph whose id assignment may differ (ids are an
// artifact of insertion order; names are the stable identity). Application
// interns names through the KnowledgeGraph facade, so referencing an entity
// that does not exist yet creates it — the intended streaming semantics
// (adds may arrive before the entity's own introduction record).

/// A streamed relational triple, by name.
struct NamedRelationalTriple {
  std::string head;
  std::string relation;
  std::string tail;
};

/// A streamed attribute triple, by name (value is free text).
struct NamedAttributeTriple {
  std::string entity;
  std::string attribute;
  std::string value;
};

/// Everything one increment adds to a single KG.
struct KgUpdate {
  std::vector<std::string> new_entities;  ///< Explicit introductions.
  std::vector<NamedRelationalTriple> relational;
  std::vector<NamedAttributeTriple> attributes;

  bool empty() const {
    return new_entities.empty() && relational.empty() && attributes.empty();
  }
  int64_t size() const {
    return static_cast<int64_t>(new_entities.size() + relational.size() +
                                attributes.size());
  }
};

/// One increment across the aligned pair of KGs.
struct UpdateBatch {
  KgUpdate kg1;
  KgUpdate kg2;

  bool empty() const { return kg1.empty() && kg2.empty(); }
};

// ---- SDEAINC1 wire format ---------------------------------------------------
//
//   "SDEAINC1"                                  8-byte magic
//   u64 batch_count
//   per batch, for kg1 then kg2:
//     u64 entity_count,   entity_count   x str
//     u64 rel_count,      rel_count      x (str head, str relation, str tail)
//     u64 attr_count,     attr_count     x (str entity, str attribute, str value)
//   str = u64 byte_length + raw bytes
//
// All integers little-endian, written and read through base/wire. The
// decoder is budget-form: every count is checked against the bytes
// actually remaining (count * min_entry_bytes <= remaining) before any
// allocation, and every string length against the remaining suffix, so
// truncated or hostile inputs fail with InvalidArgument instead of
// over-allocating or reading past the end.

/// Serializes `batches` in SDEAINC1 format.
std::string EncodeUpdateLog(const std::vector<UpdateBatch>& batches);

/// Parses an SDEAINC1 blob. Errors with InvalidArgument on bad magic,
/// truncation, oversized counts/lengths, or trailing bytes.
Result<std::vector<UpdateBatch>> DecodeUpdateLog(std::string_view data);

/// Applies one update to a graph through the facade's interning API, inside
/// a BeginBulkLoad/EndBulkLoad bracket so the whole update publishes as one
/// commit (one epoch). Unknown relation/attribute/entity names are interned
/// on first use.
void ApplyUpdate(const KgUpdate& update, kg::KnowledgeGraph* graph);

/// A durable, replayable stream of update batches. Append() persists the
/// full log atomically *before* accepting the batch into memory, so a crash
/// at any point leaves a decodable log whose batch count equals what every
/// successful Append observed — recovery is "replay everything after the
/// last applied batch" (see Replay).
///
/// Single-writer, like the store it feeds.
class UpdateLog {
 public:
  /// Opens the log at `path`. A missing file is an empty log (first run);
  /// a present-but-corrupt file is an error, never silently truncated.
  static Result<UpdateLog> Open(std::string path);

  /// Appends a batch: rewrites the log file atomically, then records the
  /// batch in memory. On write failure the log (memory and disk) is
  /// unchanged and the error is returned.
  Status Append(UpdateBatch batch);

  /// Applies batches [from_batch, size()) to the graph pair, one
  /// BeginBulkLoad/EndBulkLoad commit per batch per graph. `from_batch` is
  /// the number of batches the caller already applied (its epoch cursor).
  Status Replay(int64_t from_batch, kg::KnowledgeGraph* kg1,
                kg::KnowledgeGraph* kg2) const;

  int64_t size() const { return static_cast<int64_t>(batches_.size()); }
  const std::vector<UpdateBatch>& batches() const { return batches_; }
  const std::string& path() const { return path_; }

 private:
  UpdateLog(std::string path, std::vector<UpdateBatch> batches)
      : path_(std::move(path)), batches_(std::move(batches)) {}

  std::string path_;
  std::vector<UpdateBatch> batches_;
};

}  // namespace sdea::incr

#endif  // SDEA_INCR_UPDATE_LOG_H_
