// Columnar store + facade contract suite: chunk sealing at tiny
// capacities, snapshot reads against a reference computed from the input
// formulas, dictionary vs plain value encoding, pinned-snapshot
// immutability, out-of-range id contracts, bulk-load commit deferral, and
// snapshot pin cost.
#include "kg/columnar.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "kg/knowledge_graph.h"

namespace sdea::kg {
namespace {

/// Tiny chunks: every handful of rows crosses a seal boundary, so the
/// sealed-chunk index paths and the open-chunk linear paths both run even
/// in small tests.
ColumnarOptions TinyChunks() {
  ColumnarOptions opts;
  opts.rel_chunk_rows = 4;
  opts.attr_chunk_rows = 3;
  opts.name_chunk_rows = 2;
  return opts;
}

/// BuildGraph's row formulas. Entity ids follow insertion order
/// e0..e{n-1}; relations r0, r1 and attributes a0, a1 get ids 0 and 1.
RelationalTriple RelRow(int64_t i, int64_t entities) {
  return RelationalTriple{static_cast<EntityId>((i * 7) % entities),
                          static_cast<RelationId>(i % 2),
                          static_cast<EntityId>((i * 5 + 1) % entities)};
}

struct AttrRow {
  EntityId entity;
  AttributeId attribute;
  std::string value;
};

AttrRow AttrRowAt(int64_t i, int64_t entities) {
  return AttrRow{static_cast<EntityId>((i * 3) % entities),
                 static_cast<AttributeId>(i % 2),
                 "value-" + std::to_string(i % 5)};
}

/// A deterministic graph with enough triples to fill several chunks.
KnowledgeGraph BuildGraph(int64_t entities, int64_t rel_triples,
                          int64_t attr_triples) {
  KnowledgeGraph g(TinyChunks());
  g.BeginBulkLoad();
  for (int64_t i = 0; i < entities; ++i) {
    g.AddEntity("e" + std::to_string(i));
  }
  g.AddRelation("r0");
  g.AddRelation("r1");
  g.AddAttribute("a0");
  g.AddAttribute("a1");
  for (int64_t i = 0; i < rel_triples; ++i) {
    const RelationalTriple t = RelRow(i, entities);
    g.AddRelationalTriple(t.head, t.relation, t.tail);
  }
  for (int64_t i = 0; i < attr_triples; ++i) {
    AttrRow a = AttrRowAt(i, entities);
    g.AddAttributeTriple(a.entity, a.attribute, std::move(a.value));
  }
  g.EndBulkLoad();
  return g;
}

/// Per-entity edges in insertion order, computed from the triple list
/// alone: each triple gives the head's outgoing edge, then the tail's
/// incoming edge.
std::vector<std::vector<NeighborEdge>> ReferenceAdjacency(
    int64_t entities, const std::vector<RelationalTriple>& rels) {
  std::vector<std::vector<NeighborEdge>> adjacency(
      static_cast<size_t>(entities));
  for (const RelationalTriple& t : rels) {
    adjacency[static_cast<size_t>(t.head)].push_back(
        NeighborEdge{t.relation, t.tail, /*outgoing=*/true});
    adjacency[static_cast<size_t>(t.tail)].push_back(
        NeighborEdge{t.relation, t.head, /*outgoing=*/false});
  }
  return adjacency;
}

/// What BuildGraph(entities, rel_triples, attr_triples) holds, derived
/// from the formulas without reading any store: the independent oracle
/// the snapshot reads are checked against.
struct Reference {
  std::vector<RelationalTriple> rels;
  std::vector<AttrRow> attrs;
  std::vector<std::vector<NeighborEdge>> adjacency;
  std::vector<std::vector<int64_t>> attr_rows;  ///< Per entity, ascending.
};

Reference BuildReference(int64_t entities, int64_t rel_triples,
                         int64_t attr_triples) {
  Reference ref;
  for (int64_t i = 0; i < rel_triples; ++i) {
    ref.rels.push_back(RelRow(i, entities));
  }
  ref.adjacency = ReferenceAdjacency(entities, ref.rels);
  ref.attr_rows.resize(static_cast<size_t>(entities));
  for (int64_t i = 0; i < attr_triples; ++i) {
    ref.attrs.push_back(AttrRowAt(i, entities));
    ref.attr_rows[static_cast<size_t>(ref.attrs.back().entity)].push_back(i);
  }
  return ref;
}

/// Every relational and attribute row of `snap` equals `ref`'s, by scan
/// and by row lookup.
void ExpectRowsMatch(const KgSnapshot& snap, const Reference& ref) {
  ASSERT_EQ(snap.num_relational_triples(),
            static_cast<int64_t>(ref.rels.size()));
  ASSERT_EQ(snap.num_attribute_triples(),
            static_cast<int64_t>(ref.attrs.size()));
  int64_t visited = 0;
  snap.ForEachRelational([&](int64_t row, EntityId h, RelationId r,
                             EntityId t) {
    ASSERT_EQ(row, visited);
    EXPECT_EQ(h, ref.rels[static_cast<size_t>(row)].head);
    EXPECT_EQ(r, ref.rels[static_cast<size_t>(row)].relation);
    EXPECT_EQ(t, ref.rels[static_cast<size_t>(row)].tail);
    const RelationalTriple at = snap.RelationalAt(row);
    EXPECT_EQ(at.head, h);
    EXPECT_EQ(at.relation, r);
    EXPECT_EQ(at.tail, t);
    ++visited;
  });
  EXPECT_EQ(visited, static_cast<int64_t>(ref.rels.size()));

  visited = 0;
  snap.ForEachAttribute([&](int64_t row, EntityId e, AttributeId a,
                            const std::string& value) {
    ASSERT_EQ(row, visited);
    EXPECT_EQ(e, ref.attrs[static_cast<size_t>(row)].entity);
    EXPECT_EQ(a, ref.attrs[static_cast<size_t>(row)].attribute);
    EXPECT_EQ(value, ref.attrs[static_cast<size_t>(row)].value);
    const auto [se, sa] = snap.AttributeIdsAt(row);
    EXPECT_EQ(se, e);
    EXPECT_EQ(sa, a);
    EXPECT_EQ(snap.ValueAt(row), value);
    ++visited;
  });
  EXPECT_EQ(visited, static_cast<int64_t>(ref.attrs.size()));
}

TEST(KgColumnarTest, SnapshotMatchesReferenceRows) {
  const KnowledgeGraph g = BuildGraph(11, 41, 23);
  ExpectRowsMatch(g.Snapshot(), BuildReference(11, 41, 23));
}

TEST(KgColumnarTest, NeighborsMatchReferenceInsertionOrder) {
  const KnowledgeGraph g = BuildGraph(9, 37, 0);
  const Reference ref = BuildReference(9, 37, 0);
  const KgSnapshot snap = g.Snapshot();
  const std::vector<int64_t> degrees = snap.Degrees();
  ASSERT_EQ(degrees.size(), ref.adjacency.size());
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    const auto& expected = ref.adjacency[static_cast<size_t>(e)];
    EXPECT_EQ(snap.NeighborsOf(e), expected) << "entity " << e;
    EXPECT_EQ(snap.DegreeOf(e), static_cast<int64_t>(expected.size()));
    EXPECT_EQ(degrees[static_cast<size_t>(e)],
              static_cast<int64_t>(expected.size()));
  }
}

TEST(KgColumnarTest, SelfLoopYieldsOutgoingEdgeFirst) {
  KnowledgeGraph g(TinyChunks());
  const EntityId e = g.AddEntity("x");
  const RelationId r = g.AddRelation("r");
  // Filler edges around the loop so the chunk seals and the merged
  // by_head/by_tail path runs.
  const EntityId other = g.AddEntity("y");
  std::vector<RelationalTriple> rows;
  for (int i = 0; i < 3; ++i) rows.push_back({e, r, other});
  rows.push_back({e, r, e});  // self-loop
  for (int i = 0; i < 3; ++i) rows.push_back({other, r, e});
  for (const RelationalTriple& t : rows) {
    g.AddRelationalTriple(t.head, t.relation, t.tail);
  }

  const KgSnapshot snap = g.Snapshot();
  const std::vector<NeighborEdge> edges = snap.NeighborsOf(e);
  EXPECT_EQ(edges, ReferenceAdjacency(2, rows)[static_cast<size_t>(e)]);
  // The self-loop contributes two consecutive edges, outgoing first.
  ASSERT_EQ(edges.size(), 8u);
  EXPECT_TRUE(edges[3].outgoing);
  EXPECT_EQ(edges[3].neighbor, e);
  EXPECT_FALSE(edges[4].outgoing);
  EXPECT_EQ(edges[4].neighbor, e);
  EXPECT_EQ(snap.DegreeOf(e), 8);
}

TEST(KgColumnarTest, AttributeRowsMatchReferenceIndices) {
  const KnowledgeGraph g = BuildGraph(7, 0, 29);
  const Reference ref = BuildReference(7, 0, 29);
  const KgSnapshot snap = g.Snapshot();
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    EXPECT_EQ(snap.AttributeRowsOf(e), ref.attr_rows[static_cast<size_t>(e)])
        << "entity " << e;
  }
}

TEST(KgColumnarTest, OutOfRangeIdsAreGracefulEverywhere) {
  const KnowledgeGraph g = BuildGraph(5, 13, 9);
  const KgSnapshot snap = g.Snapshot();
  for (const EntityId bad : {EntityId{-1}, EntityId{5}, EntityId{1000}}) {
    EXPECT_TRUE(snap.NeighborsOf(bad).empty());
    EXPECT_TRUE(snap.AttributeRowsOf(bad).empty());
    EXPECT_EQ(snap.DegreeOf(bad), 0);
  }
}

TEST(KgColumnarTest, PinnedSnapshotIsImmutableUnderWrites) {
  KnowledgeGraph g(TinyChunks());
  const EntityId a = g.AddEntity("a");
  const EntityId b = g.AddEntity("b");
  const RelationId r = g.AddRelation("r");
  g.AddRelationalTriple(a, r, b);

  const KgSnapshot pinned = g.Snapshot();
  ASSERT_EQ(pinned.num_relational_triples(), 1);
  const uint64_t pinned_epoch = pinned.epoch();

  // Keep writing across several chunk boundaries (seals happen underneath
  // the pin).
  for (int i = 0; i < 50; ++i) {
    const EntityId e = g.AddEntity("later" + std::to_string(i));
    g.AddRelationalTriple(a, r, e);
  }
  EXPECT_EQ(pinned.num_relational_triples(), 1);
  EXPECT_EQ(pinned.num_entities(), 2);
  EXPECT_EQ(pinned.epoch(), pinned_epoch);
  EXPECT_EQ(pinned.NeighborsOf(a).size(), 1u);
  EXPECT_EQ(pinned.entity_name(a), "a");

  const KgSnapshot fresh = g.Snapshot();
  EXPECT_GT(fresh.epoch(), pinned_epoch);
  EXPECT_EQ(fresh.num_relational_triples(), 51);
  EXPECT_EQ(fresh.NeighborsOf(a).size(), 51u);
}

TEST(KgColumnarTest, SnapshotOutlivesTheGraph) {
  KgSnapshot snap;
  {
    const KnowledgeGraph g = BuildGraph(6, 17, 11);
    snap = g.Snapshot();
  }
  // The graph (and its store) are gone; the pinned chunks must survive.
  EXPECT_EQ(snap.num_relational_triples(), 17);
  int64_t rows = 0;
  snap.ForEachRelational(
      [&](int64_t, EntityId, RelationId, EntityId) { ++rows; });
  EXPECT_EQ(rows, 17);
  EXPECT_EQ(snap.entity_name(0), "e0");
  EXPECT_EQ(snap.ValueAt(0), "value-0");
}

TEST(KgColumnarTest, BulkLoadDefersCommit) {
  KnowledgeGraph g(TinyChunks());
  const EntityId a = g.AddEntity("a");
  const EntityId b = g.AddEntity("b");
  const RelationId r = g.AddRelation("r");
  g.AddRelationalTriple(a, r, b);

  g.BeginBulkLoad();
  for (int i = 0; i < 20; ++i) {
    g.AddRelationalTriple(a, r, b);
  }
  // Mid-bulk snapshots pin the last publish, not the in-flight rows.
  EXPECT_EQ(g.Snapshot().num_relational_triples(), 1);
  g.EndBulkLoad();
  EXPECT_EQ(g.Snapshot().num_relational_triples(), 21);
}

TEST(KgColumnarTest, EveryAddPublishesOutsideBulkLoad) {
  KnowledgeGraph g(TinyChunks());
  const EntityId a = g.AddEntity("a");
  const RelationId r = g.AddRelation("r");
  uint64_t last_epoch = g.Snapshot().epoch();
  for (int i = 0; i < 10; ++i) {
    g.AddRelationalTriple(a, r, a);
    const KgSnapshot snap = g.Snapshot();
    EXPECT_EQ(snap.num_relational_triples(), i + 1);
    EXPECT_GT(snap.epoch(), last_epoch);
    last_epoch = snap.epoch();
  }
}

TEST(KgColumnarTest, RepetitiveValuesDictionaryEncodeSmaller) {
  // Two stores with identical row counts and value lengths; one repeats 3
  // distinct values per chunk, the other makes every value distinct. After
  // sealing, the repetitive store's chunks hold a small dictionary + codes
  // and must be measurably smaller.
  ColumnarOptions opts;
  opts.attr_chunk_rows = 64;
  // Small name chunks: the default 4096 preallocated slots would dominate
  // the byte accounting of this two-name graph.
  opts.name_chunk_rows = 4;
  const int64_t rows = 64 * 8;  // 8 fully sealed chunks
  auto build = [&](bool repetitive) {
    KnowledgeGraph g(opts);
    g.BeginBulkLoad();
    const EntityId e = g.AddEntity("e");
    const AttributeId a = g.AddAttribute("a");
    for (int64_t i = 0; i < rows; ++i) {
      const int64_t key = repetitive ? i % 3 : i;
      g.AddAttributeTriple(
          e, a, "payload-string-with-some-length-" + std::to_string(key));
    }
    g.EndBulkLoad();
    return g;
  };
  const KnowledgeGraph repetitive = build(true);
  const KnowledgeGraph distinct = build(false);
  EXPECT_LT(repetitive.columnar().ApproxHeapBytes(),
            distinct.columnar().ApproxHeapBytes() / 2);
  // Encoding must not change what readers see.
  const KgSnapshot snap = repetitive.Snapshot();
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_EQ(snap.ValueAt(i), "payload-string-with-some-length-" +
                                   std::to_string(i % 3));
  }
}

TEST(KgColumnarTest, CloneIsDeepAndEqual) {
  const KnowledgeGraph g = BuildGraph(8, 19, 12);
  const KnowledgeGraph copy = g.Clone();
  EXPECT_EQ(copy.num_entities(), g.num_entities());
  EXPECT_EQ(copy.num_relations(), g.num_relations());
  EXPECT_EQ(copy.num_attributes(), g.num_attributes());
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    EXPECT_EQ(copy.entity_name(e), g.entity_name(e));
  }
  ExpectRowsMatch(copy.Snapshot(), BuildReference(8, 19, 12));
}

TEST(KgColumnarTest, SnapshotPinIsSubMillisecond) {
  const KnowledgeGraph g = BuildGraph(50, 500, 300);
  constexpr int kPins = 2000;
  const auto start = std::chrono::steady_clock::now();
  uint64_t sink = 0;
  for (int i = 0; i < kPins; ++i) {
    sink += g.Snapshot().epoch();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double per_pin_ms =
      std::chrono::duration<double, std::milli>(elapsed).count() / kPins;
  EXPECT_GT(sink, 0u);
  // Acceptance bar: pin + unpin under a millisecond. Real cost is ~100ns;
  // the slack absorbs sanitizer builds and noisy CI.
  EXPECT_LT(per_pin_ms, 1.0);
}

TEST(KgColumnarTest, EmptySnapshotIsWellFormed) {
  const KgSnapshot def;  // default-constructed: epoch 0, no chunks
  EXPECT_EQ(def.epoch(), 0u);
  EXPECT_EQ(def.num_entities(), 0);
  int64_t rows = 0;
  def.ForEachRelational(
      [&](int64_t, EntityId, RelationId, EntityId) { ++rows; });
  def.ForEachAttribute(
      [&](int64_t, EntityId, AttributeId, const std::string&) { ++rows; });
  EXPECT_EQ(rows, 0);
  EXPECT_TRUE(def.NeighborsOf(0).empty());

  const KnowledgeGraph g;  // fresh graph: committed empty state
  const KgSnapshot snap = g.Snapshot();
  EXPECT_EQ(snap.num_relational_triples(), 0);
  EXPECT_TRUE(snap.NeighborsOf(0).empty());
}

}  // namespace
}  // namespace sdea::kg
