#include "kg/binary_io.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::kg {
namespace {

constexpr std::string_view kMagic = "SDEAKGB2";

// On-disk chunk sizes. Fixed (not taken from the graph's in-memory
// options) so the same logical graph always encodes to the same bytes
// regardless of how it was built.
constexpr uint32_t kRelChunkRows = 4096;
constexpr uint32_t kAttrChunkRows = 2048;
// An attribute chunk dictionary-encodes when distinct*100 <= rows*this.
constexpr uint32_t kDictMaxDistinctPct = 75;

constexpr uint8_t kEncodingPlain = 0;
constexpr uint8_t kEncodingDict = 1;

void EncodeNameTables(const KgSnapshot& snap, wire::Writer* w) {
  w->U32(static_cast<uint32_t>(snap.num_entities()));
  for (EntityId e = 0; e < snap.num_entities(); ++e) {
    w->Str32(snap.entity_name(e));
  }
  w->U32(static_cast<uint32_t>(snap.num_relations()));
  for (RelationId r = 0; r < snap.num_relations(); ++r) {
    w->Str32(snap.relation_name(r));
  }
  w->U32(static_cast<uint32_t>(snap.num_attributes()));
  for (AttributeId a = 0; a < snap.num_attributes(); ++a) {
    w->Str32(snap.attribute_name(a));
  }
}

/// Decodes one name table (a count, then that many u32-prefixed names)
/// through `add`, which must hand out ids 0, 1, 2, ... A duplicate name
/// interns to an earlier id, so the table is rejected: its declared
/// count would otherwise admit ids that were never interned.
template <typename AddFn>
Status DecodeNameTable(wire::Reader* r, const char* duplicate_error,
                       AddFn add, uint32_t* count) {
  SDEA_RETURN_IF_ERROR(r->Count(4, count));
  std::string name;
  for (uint32_t i = 0; i < *count; ++i) {
    SDEA_RETURN_IF_ERROR(r->Str32(&name));
    if (add(name) != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(duplicate_error);
    }
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeBinary(const KnowledgeGraph& graph) {
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kMagic);
  const KgSnapshot snap = graph.Snapshot();
  EncodeNameTables(snap, &w);

  // Relational section: rows re-chunked at the fixed on-disk size, each
  // chunk written as three contiguous u32 columns.
  w.U32(static_cast<uint32_t>(snap.num_relational_triples()));
  w.U32(kRelChunkRows);
  std::vector<uint32_t> heads, rels, tails;
  auto flush_rel = [&] {
    w.U32s(heads.data(), heads.size());
    w.U32s(rels.data(), rels.size());
    w.U32s(tails.data(), tails.size());
    heads.clear();
    rels.clear();
    tails.clear();
  };
  snap.ForEachRelational(
      [&](int64_t /*row*/, EntityId h, RelationId r, EntityId t) {
        heads.push_back(static_cast<uint32_t>(h));
        rels.push_back(static_cast<uint32_t>(r));
        tails.push_back(static_cast<uint32_t>(t));
        if (heads.size() == kRelChunkRows) flush_rel();
      });
  if (!heads.empty()) flush_rel();

  // Attribute section: id columns plus a per-chunk value encoding decided
  // by the chunk's own duplication (dictionary when it pays for itself).
  w.U32(static_cast<uint32_t>(snap.num_attribute_triples()));
  w.U32(kAttrChunkRows);
  std::vector<uint32_t> ents, attrs;
  std::vector<const std::string*> values;
  auto flush_attr = [&] {
    w.U32s(ents.data(), ents.size());
    w.U32s(attrs.data(), attrs.size());
    std::unordered_map<std::string_view, uint32_t> index;
    std::vector<uint32_t> codes;
    codes.reserve(values.size());
    std::vector<const std::string*> dict;
    for (const std::string* v : values) {
      auto [it, inserted] =
          index.try_emplace(*v, static_cast<uint32_t>(dict.size()));
      if (inserted) dict.push_back(v);
      codes.push_back(it->second);
    }
    if (dict.size() * 100 <= values.size() * kDictMaxDistinctPct) {
      w.U8(kEncodingDict);
      w.U32(static_cast<uint32_t>(dict.size()));
      for (const std::string* v : dict) w.Str32(*v);
      w.U32s(codes.data(), codes.size());
    } else {
      w.U8(kEncodingPlain);
      for (const std::string* v : values) w.Str32(*v);
    }
    ents.clear();
    attrs.clear();
    values.clear();
  };
  snap.ForEachAttribute([&](int64_t /*row*/, EntityId e, AttributeId a,
                            const std::string& value) {
    ents.push_back(static_cast<uint32_t>(e));
    attrs.push_back(static_cast<uint32_t>(a));
    values.push_back(&value);
    if (values.size() == kAttrChunkRows) flush_attr();
  });
  if (!values.empty()) flush_attr();
  return out;
}

Status SaveBinary(const KnowledgeGraph& graph, const std::string& path) {
  // Atomic (temp + rename): a crash mid-save must never leave a truncated
  // file that a later LoadBinary rejects — or worse, half-parses.
  return WriteStringToFileAtomic(path, EncodeBinary(graph));
}

Result<KnowledgeGraph> DecodeBinary(std::string_view data) {
  wire::Reader r(data, "binary KG");
  SDEA_RETURN_IF_ERROR(r.Magic(kMagic));
  KnowledgeGraph g;
  g.BeginBulkLoad();
  // Every count is bounded against the bytes its section could possibly
  // occupy before its loop runs (Reader::Count), so a corrupt 0xFFFFFFFF
  // count fails in O(1) instead of spinning billions of failed reads.
  uint32_t entities = 0, relations = 0, attributes = 0;
  SDEA_RETURN_IF_ERROR(DecodeNameTable(
      &r, "duplicate entity name in binary KG",
      [&](const std::string& n) { return g.AddEntity(n); }, &entities));
  SDEA_RETURN_IF_ERROR(DecodeNameTable(
      &r, "duplicate relation name in binary KG",
      [&](const std::string& n) { return g.AddRelation(n); }, &relations));
  SDEA_RETURN_IF_ERROR(DecodeNameTable(
      &r, "duplicate attribute name in binary KG",
      [&](const std::string& n) { return g.AddAttribute(n); },
      &attributes));

  // ---- Relational chunks: three u32 columns per chunk. -------------------
  // 12 bytes per row minimum; a lying total fails before any loop.
  uint32_t rel_rows = 0, rel_chunk = 0;
  SDEA_RETURN_IF_ERROR(r.Count(12, &rel_rows));
  SDEA_RETURN_IF_ERROR(r.U32(&rel_chunk));
  if (rel_rows > 0 && rel_chunk == 0) {
    return Status::InvalidArgument("binary KG chunk size is zero");
  }
  std::vector<uint32_t> heads, rels, tails;
  for (uint32_t base = 0; base < rel_rows; base += rel_chunk) {
    const uint32_t rows = std::min(rel_chunk, rel_rows - base);
    heads.resize(rows);
    rels.resize(rows);
    tails.resize(rows);
    SDEA_RETURN_IF_ERROR(r.U32s(rows, heads.data()));
    SDEA_RETURN_IF_ERROR(r.U32s(rows, rels.data()));
    SDEA_RETURN_IF_ERROR(r.U32s(rows, tails.data()));
    for (uint32_t i = 0; i < rows; ++i) {
      if (heads[i] >= entities || tails[i] >= entities ||
          rels[i] >= relations) {
        return Status::InvalidArgument("binary KG triple out of range");
      }
      g.AddRelationalTriple(static_cast<EntityId>(heads[i]),
                            static_cast<RelationId>(rels[i]),
                            static_cast<EntityId>(tails[i]));
    }
  }

  // ---- Attribute chunks: two u32 id columns + per-chunk value encoding. --
  // Minimum bytes per row: entity + attribute + (code | empty string) = 12.
  uint32_t attr_rows = 0, attr_chunk = 0;
  SDEA_RETURN_IF_ERROR(r.Count(12, &attr_rows));
  SDEA_RETURN_IF_ERROR(r.U32(&attr_chunk));
  if (attr_rows > 0 && attr_chunk == 0) {
    return Status::InvalidArgument("binary KG chunk size is zero");
  }
  std::vector<uint32_t> ents, attrs, codes;
  std::vector<std::string> dict;
  std::string value;
  for (uint32_t base = 0; base < attr_rows; base += attr_chunk) {
    const uint32_t rows = std::min(attr_chunk, attr_rows - base);
    ents.resize(rows);
    attrs.resize(rows);
    SDEA_RETURN_IF_ERROR(r.U32s(rows, ents.data()));
    SDEA_RETURN_IF_ERROR(r.U32s(rows, attrs.data()));
    for (uint32_t i = 0; i < rows; ++i) {
      if (ents[i] >= entities || attrs[i] >= attributes) {
        return Status::InvalidArgument(
            "binary KG attribute triple out of range");
      }
    }
    uint8_t encoding = 0;
    SDEA_RETURN_IF_ERROR(r.U8(&encoding));
    if (encoding == kEncodingDict) {
      uint32_t dict_n = 0;
      SDEA_RETURN_IF_ERROR(r.U32(&dict_n));
      // A first-occurrence dictionary never has more entries than rows.
      if (dict_n > rows) {
        return Status::InvalidArgument(
            "binary KG chunk dictionary larger than chunk");
      }
      dict.resize(dict_n);
      for (std::string& entry : dict) {
        SDEA_RETURN_IF_ERROR(r.Str32(&entry));
      }
      codes.resize(rows);
      SDEA_RETURN_IF_ERROR(r.U32s(rows, codes.data()));
      for (uint32_t i = 0; i < rows; ++i) {
        if (codes[i] >= dict_n) {
          return Status::InvalidArgument(
              "binary KG dictionary code out of range");
        }
        g.AddAttributeTriple(static_cast<EntityId>(ents[i]),
                             static_cast<AttributeId>(attrs[i]),
                             dict[codes[i]]);
      }
    } else if (encoding == kEncodingPlain) {
      for (uint32_t i = 0; i < rows; ++i) {
        SDEA_RETURN_IF_ERROR(r.Str32(&value));
        g.AddAttributeTriple(static_cast<EntityId>(ents[i]),
                             static_cast<AttributeId>(attrs[i]),
                             std::move(value));
      }
    } else {
      return Status::InvalidArgument("binary KG chunk encoding unknown");
    }
  }
  SDEA_RETURN_IF_ERROR(r.Finish());
  g.EndBulkLoad();
  return g;
}

Result<KnowledgeGraph> LoadBinary(const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  auto decoded = DecodeBinary(data);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

}  // namespace sdea::kg
