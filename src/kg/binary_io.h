#ifndef SDEA_KG_BINARY_IO_H_
#define SDEA_KG_BINARY_IO_H_

#include <string>

#include "base/status.h"
#include "kg/knowledge_graph.h"

namespace sdea::kg {

/// Compact binary serialization of a KnowledgeGraph — the fast-load path
/// for large datasets (the 100K-entity OpenEA graphs parse an order of
/// magnitude faster than from TSV).
///
/// The format is versioned by its 8-byte magic:
///
///  * SDEAKGB2 (current, written by EncodeBinary): magic + string tables
///    (entities, relations, attributes) + chunked columnar triple sections
///    mirroring the in-memory store. Relational rows are split into
///    fixed-size chunks of three u32 columns (head, relation, tail);
///    attribute rows into chunks of two u32 id columns plus a per-chunk
///    value encoding — dictionary (distinct strings + u32 codes) when the
///    chunk repeats values enough to pay for it, plain strings otherwise.
///  * SDEAKGB1 (legacy, written by EncodeBinaryV1): row-interleaved
///    triples. DecodeBinary still loads it, so files saved before the
///    columnar store keep working.

/// Serializes `graph` into the SDEAKGB2 chunked columnar wire format,
/// reading one pinned snapshot (the graph's last commit).
std::string EncodeBinary(const KnowledgeGraph& graph);

/// Serializes `graph` into the legacy SDEAKGB1 row format (kept so tests
/// can prove the v1 load path still works; new files should use
/// EncodeBinary).
std::string EncodeBinaryV1(const KnowledgeGraph& graph);

/// Parses a blob written by EncodeBinary or EncodeBinaryV1, dispatching on
/// the magic. Robust against arbitrary bytes: returns InvalidArgument
/// (never crashes, hangs, or over-allocates) on a wrong magic, truncated
/// sections, counts that exceed what the blob could possibly hold,
/// out-of-range triple ids, malformed chunk headers, dictionary codes past
/// the dictionary, or duplicate names.
Result<KnowledgeGraph> DecodeBinary(const std::string& data);

/// Writes EncodeBinary(graph) to `path` atomically (temp file + rename), so
/// a crash mid-save leaves the previous file intact — never a torn one.
Status SaveBinary(const KnowledgeGraph& graph, const std::string& path);

/// Loads a graph written by SaveBinary (ReadFileToString + DecodeBinary,
/// with the path added to any error message). Accepts both format
/// versions.
Result<KnowledgeGraph> LoadBinary(const std::string& path);

}  // namespace sdea::kg

#endif  // SDEA_KG_BINARY_IO_H_
