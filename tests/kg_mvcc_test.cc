// Concurrent reader/writer torture for the columnar MVCC store: one writer
// appends formula-generated triples and publishes commits while reader
// threads pin snapshots and verify every visible row against the formula.
// A snapshot must always be an exact watermark-prefix of the committed
// stream — no torn rows, no missing rows, no rows from the future. The
// last case runs every const facade read from several threads at once.
// Runs under TSan in CI (label: kg); everything is seeded and
// deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "kg/binary_io.h"
#include "kg/columnar.h"
#include "kg/knowledge_graph.h"

namespace sdea::kg {
namespace {

constexpr int64_t kEntities = 64;
constexpr int64_t kRelations = 8;

// The writer appends exactly these triples, in this order; readers can
// recompute any row from its index alone.
EntityId HeadAt(int64_t row) {
  return static_cast<EntityId>((row * 7 + 3) % kEntities);
}
RelationId RelAt(int64_t row) {
  return static_cast<RelationId>((row * 5 + 1) % kRelations);
}
EntityId TailAt(int64_t row) {
  return static_cast<EntityId>((row * 11 + 5) % kEntities);
}
std::string ValueAt(int64_t row) {
  // Only 7 distinct values: most sealed chunks dictionary-encode, so the
  // dict path runs under concurrency too.
  return "v" + std::to_string(row % 7);
}

/// Verifies `snap` is the watermark-prefix of the formula stream:
/// every visible relational and attribute row matches its formula and the
/// visit count equals the watermark.
void CheckSnapshotConsistent(const KgSnapshot& snap) {
  int64_t rel_seen = 0;
  snap.ForEachRelational(
      [&](int64_t row, EntityId h, RelationId r, EntityId t) {
        ASSERT_EQ(row, rel_seen);
        ASSERT_EQ(h, HeadAt(row)) << "row " << row;
        ASSERT_EQ(r, RelAt(row)) << "row " << row;
        ASSERT_EQ(t, TailAt(row)) << "row " << row;
        ++rel_seen;
      });
  ASSERT_EQ(rel_seen, snap.num_relational_triples());

  int64_t attr_seen = 0;
  snap.ForEachAttribute(
      [&](int64_t row, EntityId e, AttributeId a, const std::string& value) {
        ASSERT_EQ(row, attr_seen);
        ASSERT_EQ(e, HeadAt(row)) << "row " << row;
        ASSERT_EQ(a, static_cast<AttributeId>(0));
        ASSERT_EQ(value, ValueAt(row)) << "row " << row;
        ++attr_seen;
      });
  ASSERT_EQ(attr_seen, snap.num_attribute_triples());
}

/// Cross-checks NeighborsOf against a direct scan of the same snapshot —
/// both the sealed (index merge) and open (linear) chunk paths must agree
/// with insertion order regardless of where the watermark cuts.
void CheckNeighborsConsistent(const KgSnapshot& snap, EntityId e) {
  std::vector<NeighborEdge> expected;
  snap.ForEachRelational(
      [&](int64_t /*row*/, EntityId h, RelationId r, EntityId t) {
        if (h == e) expected.push_back(NeighborEdge{r, t, true});
        if (t == e) expected.push_back(NeighborEdge{r, h, false});
      });
  ASSERT_EQ(snap.NeighborsOf(e), expected);
  ASSERT_EQ(snap.DegreeOf(e), static_cast<int64_t>(expected.size()));
}

TEST(KgMvccTest, StoreLevelReadersSeeConsistentPrefixes) {
  // Small chunks: the run crosses hundreds of seal boundaries.
  ColumnarOptions opts;
  opts.rel_chunk_rows = 32;
  opts.attr_chunk_rows = 16;
  opts.name_chunk_rows = 8;
  ColumnarKgStore store(opts);
  for (int64_t i = 0; i < kEntities; ++i) {
    store.AppendEntityName("e" + std::to_string(i));
  }
  for (int64_t i = 0; i < kRelations; ++i) {
    store.AppendRelationName("r" + std::to_string(i));
  }
  store.AppendAttributeName("a");
  store.Commit();

  constexpr int64_t kRows = 6000;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&store, &done, t] {
      uint64_t last_epoch = 0;
      int64_t last_rel = 0, last_attr = 0;
      int64_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 10) {
        const KgSnapshot snap = store.Snapshot();
        // Epochs and watermarks are monotone per reader.
        ASSERT_GE(snap.epoch(), last_epoch);
        ASSERT_GE(snap.num_relational_triples(), last_rel);
        ASSERT_GE(snap.num_attribute_triples(), last_attr);
        last_epoch = snap.epoch();
        last_rel = snap.num_relational_triples();
        last_attr = snap.num_attribute_triples();
        CheckSnapshotConsistent(snap);
        CheckNeighborsConsistent(
            snap, static_cast<EntityId>((iterations + t) % kEntities));
        ++iterations;
      }
    });
  }

  // Writer: uneven commit cadence so watermarks cut chunks at many
  // different offsets (including mid-chunk and exactly-at-seal).
  for (int64_t row = 0; row < kRows; ++row) {
    store.AppendRelational(HeadAt(row), RelAt(row), TailAt(row));
    store.AppendAttribute(HeadAt(row), 0, ValueAt(row));
    if (row % 7 == 0 || row % 13 == 0) store.Commit();
  }
  store.Commit();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  const KgSnapshot final_snap = store.Snapshot();
  EXPECT_EQ(final_snap.num_relational_triples(), kRows);
  EXPECT_EQ(final_snap.num_attribute_triples(), kRows);
  CheckSnapshotConsistent(final_snap);
}

TEST(KgMvccTest, FacadeAutoCommitReadersNeverSeeTornState) {
  ColumnarOptions opts;
  opts.rel_chunk_rows = 16;
  opts.attr_chunk_rows = 8;
  KnowledgeGraph g(opts);
  g.BeginBulkLoad();
  for (int64_t i = 0; i < kEntities; ++i) g.AddEntity("e" + std::to_string(i));
  for (int64_t i = 0; i < kRelations; ++i) {
    g.AddRelation("r" + std::to_string(i));
  }
  g.AddAttribute("a");
  g.EndBulkLoad();

  constexpr int64_t kRows = 3000;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&g, &done] {
      uint64_t last_epoch = 0;
      int64_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 10) {
        const KgSnapshot snap = g.Snapshot();
        ASSERT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        CheckSnapshotConsistent(snap);
        ++iterations;
      }
    });
  }

  // Every facade Add publishes its own commit; readers may pin between any
  // two of them.
  for (int64_t row = 0; row < kRows; ++row) {
    g.AddRelationalTriple(HeadAt(row), RelAt(row), TailAt(row));
    g.AddAttributeTriple(HeadAt(row), 0, ValueAt(row));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  CheckSnapshotConsistent(g.Snapshot());
  EXPECT_EQ(g.Snapshot().num_relational_triples(), kRows);
}

TEST(KgMvccTest, PinnedEpochsNestUnderConcurrentWrites) {
  // Pins taken at different times form a chain of prefixes: any earlier
  // pin's rows are a prefix of any later pin's rows.
  ColumnarOptions opts;
  opts.rel_chunk_rows = 8;
  ColumnarKgStore store(opts);
  for (int64_t i = 0; i < kEntities; ++i) {
    store.AppendEntityName("e" + std::to_string(i));
  }
  store.AppendRelationName("r");
  store.Commit();

  std::vector<KgSnapshot> pins;
  std::atomic<bool> done{false};
  std::thread collector([&store, &pins, &done] {
    while (!done.load(std::memory_order_acquire)) {
      pins.push_back(store.Snapshot());
      if (pins.size() > 500) break;
    }
  });
  for (int64_t row = 0; row < 2000; ++row) {
    store.AppendRelational(HeadAt(row), 0, TailAt(row));
    if (row % 3 == 0) store.Commit();
  }
  store.Commit();
  done.store(true, std::memory_order_release);
  collector.join();

  uint64_t last_epoch = 0;
  int64_t last_rows = 0;
  for (const KgSnapshot& snap : pins) {
    ASSERT_GE(snap.epoch(), last_epoch);
    ASSERT_GE(snap.num_relational_triples(), last_rows);
    last_epoch = snap.epoch();
    last_rows = snap.num_relational_triples();
    // Spot-check the last visible row — prefix property means it must
    // match the formula stream.
    if (snap.num_relational_triples() > 0) {
      const int64_t row = snap.num_relational_triples() - 1;
      const RelationalTriple t = snap.RelationalAt(row);
      ASSERT_EQ(t.head, HeadAt(row));
      ASSERT_EQ(t.tail, TailAt(row));
    }
  }
}

/// Everything the const facade reads return for one graph.
struct FacadeReads {
  std::vector<EntityId> found;
  std::vector<std::string> names;
  std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, double, double,
             double>
      stats;
  std::string encoded;
  std::string clone_encoded;
  std::vector<std::vector<NeighborEdge>> neighbors;
  std::vector<int64_t> degrees;
  std::vector<std::vector<int64_t>> attribute_rows;

  bool operator==(const FacadeReads&) const = default;
};

FacadeReads ReadEverything(const KnowledgeGraph& g) {
  FacadeReads r;
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    const Result<EntityId> found = g.FindEntity("e" + std::to_string(e));
    r.found.push_back(found.ok() ? *found : kInvalidEntity);
    r.names.push_back(g.entity_name(e));
  }
  const KgStatistics s = g.ComputeStatistics();
  r.stats = {s.num_entities,          s.num_relations,
             s.num_attributes,        s.num_relational_triples,
             s.num_attribute_triples, s.degree_le3,
             s.degree_le5,            s.degree_le10};
  r.encoded = EncodeBinary(g);
  r.clone_encoded = EncodeBinary(g.Clone());
  const KgSnapshot snap = g.Snapshot();
  for (EntityId e = 0; e < snap.num_entities(); ++e) {
    r.neighbors.push_back(snap.NeighborsOf(e));
    r.degrees.push_back(snap.DegreeOf(e));
    r.attribute_rows.push_back(snap.AttributeRowsOf(e));
  }
  return r;
}

TEST(KgMvccTest, ConcurrentConstFacadeReadsAgree) {
  // Tiny chunks and row counts that are not multiples of them: the
  // committed graph has sealed chunks and a partly filled open chunk of
  // each kind, so the index and the linear-scan read paths both run.
  ColumnarOptions opts;
  opts.rel_chunk_rows = 7;
  opts.attr_chunk_rows = 5;
  opts.name_chunk_rows = 4;
  KnowledgeGraph g(opts);
  g.BeginBulkLoad();
  for (int64_t i = 0; i < kEntities; ++i) g.AddEntity("e" + std::to_string(i));
  for (int64_t i = 0; i < kRelations; ++i) {
    g.AddRelation("r" + std::to_string(i));
  }
  g.AddAttribute("a");
  constexpr int64_t kRows = 300;
  for (int64_t row = 0; row < kRows; ++row) {
    g.AddRelationalTriple(HeadAt(row), RelAt(row), TailAt(row));
  }
  for (int64_t row = 0; row < kRows - 2; ++row) {
    g.AddAttributeTriple(HeadAt(row), 0, ValueAt(row));
  }
  g.EndBulkLoad();
  ASSERT_NE(kRows % opts.rel_chunk_rows, 0);
  ASSERT_NE((kRows - 2) % opts.attr_chunk_rows, 0);

  const FacadeReads expected = ReadEverything(g);
  ASSERT_EQ(expected.found.size(), static_cast<size_t>(kEntities));

  constexpr int kReaders = 4;
  std::vector<FacadeReads> got(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  const KnowledgeGraph& shared = g;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&shared, &got, t] {
      got[static_cast<size_t>(t)] = ReadEverything(shared);
    });
  }
  for (std::thread& t : readers) t.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_TRUE(got[static_cast<size_t>(t)] == expected) << "reader " << t;
  }
}

}  // namespace
}  // namespace sdea::kg
