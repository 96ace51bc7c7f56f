#include "kg/binary_io.h"

#include <cstring>
#include <unordered_map>

#include "base/fileio.h"

namespace sdea::kg {
namespace {

constexpr char kMagicV1[8] = {'S', 'D', 'E', 'A', 'K', 'G', 'B', '1'};
constexpr char kMagicV2[8] = {'S', 'D', 'E', 'A', 'K', 'G', 'B', '2'};

// On-disk chunk sizes of the v2 format. Fixed (not taken from the graph's
// in-memory options) so the same logical graph always encodes to the same
// bytes regardless of how it was built.
constexpr uint32_t kRelChunkRows = 4096;
constexpr uint32_t kAttrChunkRows = 2048;
// A v2 attribute chunk dictionary-encodes when distinct*100 <= rows*this.
constexpr uint32_t kDictMaxDistinctPct = 75;

constexpr uint8_t kEncodingPlain = 0;
constexpr uint8_t kEncodingDict = 1;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  /// Bytes not yet consumed — the budget every on-disk count is bounded
  /// against before its loop runs.
  size_t remaining() const { return data_.size() - pos_; }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    std::memcpy(v, data_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    // Compare against the remaining budget rather than `pos_ + len` so a
    // huge len cannot wrap a 32-bit size_t and sneak past the check.
    if (!ReadU32(&len) || len > remaining()) return false;
    s->assign(data_, pos_, len);
    pos_ += len;
    return true;
  }

 private:
  const std::string& data_;
  size_t pos_ = sizeof(kMagicV1);
};

Status Truncated() { return Status::InvalidArgument("truncated binary KG"); }
Status Oversized() {
  return Status::InvalidArgument("binary KG count exceeds file size");
}

void EncodeNameTables(const KgSnapshot& snap, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(snap.num_entities()));
  for (EntityId e = 0; e < snap.num_entities(); ++e) {
    AppendString(out, snap.entity_name(e));
  }
  AppendU32(out, static_cast<uint32_t>(snap.num_relations()));
  for (RelationId r = 0; r < snap.num_relations(); ++r) {
    AppendString(out, snap.relation_name(r));
  }
  AppendU32(out, static_cast<uint32_t>(snap.num_attributes()));
  for (AttributeId a = 0; a < snap.num_attributes(); ++a) {
    AppendString(out, snap.attribute_name(a));
  }
}

/// Decodes the three name tables shared by both format versions into `g`.
/// `counts` receives {entities, relations, attributes} for later id range
/// checks.
Status DecodeNameTables(Reader* reader, KnowledgeGraph* g,
                        uint32_t counts[3]) {
  uint32_t entities = 0;
  if (!reader->ReadU32(&entities)) return Truncated();
  // Every on-disk count is bounded against the bytes its section could
  // possibly occupy before the loop runs, so a corrupt 0xFFFFFFFF count
  // fails in O(1) instead of spinning billions of failed reads.
  if (entities > reader->remaining() / 4) return Oversized();
  for (uint32_t i = 0; i < entities; ++i) {
    std::string name;
    if (!reader->ReadString(&name)) return Truncated();
    if (g->AddEntity(name) != static_cast<EntityId>(i)) {
      return Status::InvalidArgument("duplicate entity name in binary KG");
    }
  }
  uint32_t relations = 0;
  if (!reader->ReadU32(&relations)) return Truncated();
  if (relations > reader->remaining() / 4) return Oversized();
  for (uint32_t i = 0; i < relations; ++i) {
    std::string name;
    if (!reader->ReadString(&name)) return Truncated();
    if (g->AddRelation(name) != static_cast<RelationId>(i)) {
      return Status::InvalidArgument("duplicate relation name in binary KG");
    }
  }
  uint32_t attributes = 0;
  if (!reader->ReadU32(&attributes)) return Truncated();
  if (attributes > reader->remaining() / 4) return Oversized();
  for (uint32_t i = 0; i < attributes; ++i) {
    std::string name;
    if (!reader->ReadString(&name)) return Truncated();
    if (g->AddAttribute(name) != static_cast<AttributeId>(i)) {
      return Status::InvalidArgument("duplicate attribute name in binary KG");
    }
  }
  counts[0] = entities;
  counts[1] = relations;
  counts[2] = attributes;
  return Status::Ok();
}

Result<KnowledgeGraph> DecodeBinaryV1(Reader reader) {
  KnowledgeGraph g;
  g.BeginBulkLoad();
  uint32_t counts[3] = {0, 0, 0};
  SDEA_RETURN_IF_ERROR(DecodeNameTables(&reader, &g, counts));
  const uint32_t entities = counts[0];
  const uint32_t relations = counts[1];
  const uint32_t attributes = counts[2];

  uint32_t rel_triples = 0;
  if (!reader.ReadU32(&rel_triples)) return Truncated();
  if (rel_triples > reader.remaining() / 12) return Oversized();
  for (uint32_t i = 0; i < rel_triples; ++i) {
    uint32_t h = 0, r = 0, t = 0;
    if (!reader.ReadU32(&h) || !reader.ReadU32(&r) || !reader.ReadU32(&t)) {
      return Truncated();
    }
    if (h >= entities || t >= entities || r >= relations) {
      return Status::InvalidArgument("binary KG triple out of range");
    }
    g.AddRelationalTriple(static_cast<EntityId>(h),
                          static_cast<RelationId>(r),
                          static_cast<EntityId>(t));
  }
  uint32_t attr_triples = 0;
  if (!reader.ReadU32(&attr_triples)) return Truncated();
  if (attr_triples > reader.remaining() / 12) return Oversized();
  for (uint32_t i = 0; i < attr_triples; ++i) {
    uint32_t e = 0, a = 0;
    std::string value;
    if (!reader.ReadU32(&e) || !reader.ReadU32(&a) ||
        !reader.ReadString(&value)) {
      return Truncated();
    }
    if (e >= entities || a >= attributes) {
      return Status::InvalidArgument(
          "binary KG attribute triple out of range");
    }
    g.AddAttributeTriple(static_cast<EntityId>(e),
                         static_cast<AttributeId>(a), std::move(value));
  }
  g.EndBulkLoad();
  return g;
}

Result<KnowledgeGraph> DecodeBinaryV2(Reader reader) {
  KnowledgeGraph g;
  g.BeginBulkLoad();
  uint32_t counts[3] = {0, 0, 0};
  SDEA_RETURN_IF_ERROR(DecodeNameTables(&reader, &g, counts));
  const uint32_t entities = counts[0];
  const uint32_t relations = counts[1];
  const uint32_t attributes = counts[2];

  // ---- Relational chunks: three u32 columns per chunk. -------------------
  uint32_t rel_rows = 0, rel_chunk = 0;
  if (!reader.ReadU32(&rel_rows) || !reader.ReadU32(&rel_chunk)) {
    return Truncated();
  }
  if (rel_rows > 0 && rel_chunk == 0) {
    return Status::InvalidArgument("binary KG chunk size is zero");
  }
  // 12 bytes per row minimum; a lying total fails before any loop.
  if (rel_rows > reader.remaining() / 12) return Oversized();
  std::vector<uint32_t> col;
  for (uint32_t base = 0; base < rel_rows; base += rel_chunk) {
    const uint32_t rows = std::min(rel_chunk, rel_rows - base);
    std::vector<uint32_t> heads(rows), rels(rows), tails(rows);
    for (uint32_t i = 0; i < rows; ++i) {
      if (!reader.ReadU32(&heads[i])) return Truncated();
    }
    for (uint32_t i = 0; i < rows; ++i) {
      if (!reader.ReadU32(&rels[i])) return Truncated();
    }
    for (uint32_t i = 0; i < rows; ++i) {
      if (!reader.ReadU32(&tails[i])) return Truncated();
    }
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
  uint32_t attr_rows = 0, attr_chunk = 0;
  if (!reader.ReadU32(&attr_rows) || !reader.ReadU32(&attr_chunk)) {
    return Truncated();
  }
  if (attr_rows > 0 && attr_chunk == 0) {
    return Status::InvalidArgument("binary KG chunk size is zero");
  }
  // Minimum bytes per row: entity + attribute + (code | empty string) = 12.
  if (attr_rows > reader.remaining() / 12) return Oversized();
  for (uint32_t base = 0; base < attr_rows; base += attr_chunk) {
    const uint32_t rows = std::min(attr_chunk, attr_rows - base);
    std::vector<uint32_t> ents(rows), attrs(rows);
    for (uint32_t i = 0; i < rows; ++i) {
      if (!reader.ReadU32(&ents[i])) return Truncated();
    }
    for (uint32_t i = 0; i < rows; ++i) {
      if (!reader.ReadU32(&attrs[i])) return Truncated();
    }
    for (uint32_t i = 0; i < rows; ++i) {
      if (ents[i] >= entities || attrs[i] >= attributes) {
        return Status::InvalidArgument(
            "binary KG attribute triple out of range");
      }
    }
    uint8_t encoding = 0;
    if (!reader.ReadU8(&encoding)) return Truncated();
    if (encoding == kEncodingDict) {
      uint32_t dict_n = 0;
      if (!reader.ReadU32(&dict_n)) return Truncated();
      // A first-occurrence dictionary never has more entries than rows.
      if (dict_n > rows) {
        return Status::InvalidArgument(
            "binary KG chunk dictionary larger than chunk");
      }
      std::vector<std::string> dict(dict_n);
      for (uint32_t i = 0; i < dict_n; ++i) {
        if (!reader.ReadString(&dict[i])) return Truncated();
      }
      for (uint32_t i = 0; i < rows; ++i) {
        uint32_t code = 0;
        if (!reader.ReadU32(&code)) return Truncated();
        if (code >= dict_n) {
          return Status::InvalidArgument(
              "binary KG dictionary code out of range");
        }
        g.AddAttributeTriple(static_cast<EntityId>(ents[i]),
                             static_cast<AttributeId>(attrs[i]), dict[code]);
      }
    } else if (encoding == kEncodingPlain) {
      for (uint32_t i = 0; i < rows; ++i) {
        std::string value;
        if (!reader.ReadString(&value)) return Truncated();
        g.AddAttributeTriple(static_cast<EntityId>(ents[i]),
                             static_cast<AttributeId>(attrs[i]),
                             std::move(value));
      }
    } else {
      return Status::InvalidArgument("binary KG chunk encoding unknown");
    }
  }
  g.EndBulkLoad();
  return g;
}

}  // namespace

std::string EncodeBinary(const KnowledgeGraph& graph) {
  std::string out;
  out.append(kMagicV2, sizeof(kMagicV2));
  const KgSnapshot snap = graph.Snapshot();
  EncodeNameTables(snap, &out);

  // Relational section: rows re-chunked at the fixed on-disk size, each
  // chunk written as three contiguous u32 columns.
  AppendU32(&out, static_cast<uint32_t>(snap.num_relational_triples()));
  AppendU32(&out, kRelChunkRows);
  std::vector<uint32_t> heads, rels, tails;
  auto flush_rel = [&] {
    for (uint32_t h : heads) AppendU32(&out, h);
    for (uint32_t r : rels) AppendU32(&out, r);
    for (uint32_t t : tails) AppendU32(&out, t);
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
  AppendU32(&out, static_cast<uint32_t>(snap.num_attribute_triples()));
  AppendU32(&out, kAttrChunkRows);
  std::vector<uint32_t> ents, attrs;
  std::vector<const std::string*> values;
  auto flush_attr = [&] {
    for (uint32_t e : ents) AppendU32(&out, e);
    for (uint32_t a : attrs) AppendU32(&out, a);
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
      out.push_back(static_cast<char>(kEncodingDict));
      AppendU32(&out, static_cast<uint32_t>(dict.size()));
      for (const std::string* v : dict) AppendString(&out, *v);
      for (uint32_t c : codes) AppendU32(&out, c);
    } else {
      out.push_back(static_cast<char>(kEncodingPlain));
      for (const std::string* v : values) AppendString(&out, *v);
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

std::string EncodeBinaryV1(const KnowledgeGraph& graph) {
  std::string out;
  out.append(kMagicV1, sizeof(kMagicV1));
  const KgSnapshot snap = graph.Snapshot();
  EncodeNameTables(snap, &out);
  AppendU32(&out, static_cast<uint32_t>(snap.num_relational_triples()));
  snap.ForEachRelational(
      [&](int64_t /*row*/, EntityId h, RelationId r, EntityId t) {
        AppendU32(&out, static_cast<uint32_t>(h));
        AppendU32(&out, static_cast<uint32_t>(r));
        AppendU32(&out, static_cast<uint32_t>(t));
      });
  AppendU32(&out, static_cast<uint32_t>(snap.num_attribute_triples()));
  snap.ForEachAttribute([&](int64_t /*row*/, EntityId e, AttributeId a,
                            const std::string& value) {
    AppendU32(&out, static_cast<uint32_t>(e));
    AppendU32(&out, static_cast<uint32_t>(a));
    AppendString(&out, value);
  });
  return out;
}

Status SaveBinary(const KnowledgeGraph& graph, const std::string& path) {
  // Atomic (temp + rename): a crash mid-save must never leave a truncated
  // file that a later LoadBinary rejects — or worse, half-parses.
  return WriteStringToFileAtomic(path, EncodeBinary(graph));
}

Result<KnowledgeGraph> DecodeBinary(const std::string& data) {
  if (data.size() < sizeof(kMagicV1)) {
    return Status::InvalidArgument("not an SDEA binary KG");
  }
  if (std::memcmp(data.data(), kMagicV2, sizeof(kMagicV2)) == 0) {
    return DecodeBinaryV2(Reader(data));
  }
  if (std::memcmp(data.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    return DecodeBinaryV1(Reader(data));
  }
  return Status::InvalidArgument("not an SDEA binary KG");
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
