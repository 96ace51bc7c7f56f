#include "incr/update_log.h"

#include <utility>

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::incr {
namespace {

constexpr std::string_view kMagic = "SDEAINC1";

void EncodeUpdate(wire::Writer* w, const KgUpdate& u) {
  w->U64(u.new_entities.size());
  for (const std::string& e : u.new_entities) w->Str64(e);
  w->U64(u.relational.size());
  for (const NamedRelationalTriple& t : u.relational) {
    w->Str64(t.head);
    w->Str64(t.relation);
    w->Str64(t.tail);
  }
  w->U64(u.attributes.size());
  for (const NamedAttributeTriple& t : u.attributes) {
    w->Str64(t.entity);
    w->Str64(t.attribute);
    w->Str64(t.value);
  }
}

Status DecodeUpdate(wire::Reader* r, KgUpdate* u) {
  uint64_t n = 0;
  // Every entry contains at least one length-prefixed string per field, so
  // the minimum entry size is 8 bytes (entities) or 24 bytes (triples).
  SDEA_RETURN_IF_ERROR(r->Count(8, &n));
  u->new_entities.resize(static_cast<size_t>(n));
  for (std::string& e : u->new_entities) {
    SDEA_RETURN_IF_ERROR(r->Str64(&e));
  }
  SDEA_RETURN_IF_ERROR(r->Count(24, &n));
  u->relational.resize(static_cast<size_t>(n));
  for (NamedRelationalTriple& t : u->relational) {
    SDEA_RETURN_IF_ERROR(r->Str64(&t.head));
    SDEA_RETURN_IF_ERROR(r->Str64(&t.relation));
    SDEA_RETURN_IF_ERROR(r->Str64(&t.tail));
  }
  SDEA_RETURN_IF_ERROR(r->Count(24, &n));
  u->attributes.resize(static_cast<size_t>(n));
  for (NamedAttributeTriple& t : u->attributes) {
    SDEA_RETURN_IF_ERROR(r->Str64(&t.entity));
    SDEA_RETURN_IF_ERROR(r->Str64(&t.attribute));
    SDEA_RETURN_IF_ERROR(r->Str64(&t.value));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeUpdateLog(const std::vector<UpdateBatch>& batches) {
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kMagic);
  w.U64(batches.size());
  for (const UpdateBatch& b : batches) {
    EncodeUpdate(&w, b.kg1);
    EncodeUpdate(&w, b.kg2);
  }
  return out;
}

Result<std::vector<UpdateBatch>> DecodeUpdateLog(std::string_view data) {
  wire::Reader r(data, "update log");
  SDEA_RETURN_IF_ERROR(r.Magic(kMagic));
  uint64_t count = 0;
  // A batch is two updates; an empty update is three zero counts (24
  // bytes), so the smallest batch is 48 bytes.
  SDEA_RETURN_IF_ERROR(r.Count(48, &count));
  std::vector<UpdateBatch> batches(static_cast<size_t>(count));
  for (UpdateBatch& b : batches) {
    SDEA_RETURN_IF_ERROR(DecodeUpdate(&r, &b.kg1));
    SDEA_RETURN_IF_ERROR(DecodeUpdate(&r, &b.kg2));
  }
  SDEA_RETURN_IF_ERROR(r.Finish());
  return batches;
}

void ApplyUpdate(const KgUpdate& update, kg::KnowledgeGraph* graph) {
  graph->BeginBulkLoad();
  for (const std::string& e : update.new_entities) graph->AddEntity(e);
  for (const NamedRelationalTriple& t : update.relational) {
    const kg::EntityId h = graph->AddEntity(t.head);
    const kg::RelationId r = graph->AddRelation(t.relation);
    const kg::EntityId tl = graph->AddEntity(t.tail);
    graph->AddRelationalTriple(h, r, tl);
  }
  for (const NamedAttributeTriple& t : update.attributes) {
    const kg::EntityId e = graph->AddEntity(t.entity);
    const kg::AttributeId a = graph->AddAttribute(t.attribute);
    graph->AddAttributeTriple(e, a, t.value);
  }
  graph->EndBulkLoad();
}

Result<UpdateLog> UpdateLog::Open(std::string path) {
  if (!FileExists(path)) {
    return UpdateLog(std::move(path), {});
  }
  SDEA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  SDEA_ASSIGN_OR_RETURN(std::vector<UpdateBatch> batches,
                        DecodeUpdateLog(data));
  return UpdateLog(std::move(path), std::move(batches));
}

Status UpdateLog::Append(UpdateBatch batch) {
  // Persist-then-accept: encode the prospective log and atomically replace
  // the file before the in-memory state changes. A failed write (disk
  // full, injected fault) leaves both views on the previous batch count.
  batches_.push_back(std::move(batch));
  const std::string encoded = EncodeUpdateLog(batches_);
  const Status written = WriteStringToFileAtomic(path_, encoded);
  if (!written.ok()) {
    batches_.pop_back();
    return written;
  }
  return Status::Ok();
}

Status UpdateLog::Replay(int64_t from_batch, kg::KnowledgeGraph* kg1,
                         kg::KnowledgeGraph* kg2) const {
  if (from_batch < 0 || from_batch > size()) {
    return Status::InvalidArgument("replay cursor out of range");
  }
  for (int64_t i = from_batch; i < size(); ++i) {
    ApplyUpdate(batches_[static_cast<size_t>(i)].kg1, kg1);
    ApplyUpdate(batches_[static_cast<size_t>(i)].kg2, kg2);
  }
  return Status::Ok();
}

}  // namespace sdea::incr
