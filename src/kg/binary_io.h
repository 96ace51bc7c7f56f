#ifndef SDEA_KG_BINARY_IO_H_
#define SDEA_KG_BINARY_IO_H_

#include <string>
#include <string_view>

#include "base/status.h"
#include "kg/knowledge_graph.h"

namespace sdea::kg {

/// Compact binary serialization of a KnowledgeGraph — the fast-load path
/// for large datasets (the 100K-entity OpenEA graphs parse an order of
/// magnitude faster than from TSV).
///
/// SDEAKGB2, on base/wire: the 8-byte magic, three string tables
/// (entities, relations, attributes; u32 count, then u32-length-prefixed
/// names), then chunked columnar triple sections mirroring the in-memory
/// store. Relational rows are split into fixed-size chunks of three u32
/// columns (head, relation, tail); attribute rows into chunks of two u32
/// id columns plus a per-chunk value encoding — dictionary (distinct
/// strings + u32 codes) when the chunk repeats values enough to pay for
/// it, plain strings otherwise. The blob ends after the last chunk.

/// Serializes `graph` into SDEAKGB2, reading one pinned snapshot (the
/// graph's last commit).
std::string EncodeBinary(const KnowledgeGraph& graph);

/// Parses a blob written by EncodeBinary. Robust against arbitrary bytes:
/// returns InvalidArgument (never crashes, hangs, or over-allocates) on a
/// wrong magic, truncated sections, counts that exceed what the blob could
/// possibly hold, out-of-range triple ids, malformed chunk headers,
/// dictionary codes past the dictionary, duplicate names, or trailing
/// bytes.
Result<KnowledgeGraph> DecodeBinary(std::string_view data);

/// Writes EncodeBinary(graph) to `path` atomically (temp file + rename), so
/// a crash mid-save leaves the previous file intact — never a torn one.
Status SaveBinary(const KnowledgeGraph& graph, const std::string& path);

/// Loads a graph written by SaveBinary (ReadFileToString + DecodeBinary,
/// with the path added to any error message).
Result<KnowledgeGraph> LoadBinary(const std::string& path);

}  // namespace sdea::kg

#endif  // SDEA_KG_BINARY_IO_H_
