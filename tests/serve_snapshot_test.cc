#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "base/fileio.h"
#include "kg/knowledge_graph.h"

namespace sdea::serve {
namespace {

// A store whose rows are deterministic functions of (n, d, salt), so two
// builds with the same arguments answer queries identically.
core::EmbeddingStore MakeStore(int64_t n, int64_t d, uint64_t salt) {
  Rng rng(salt);
  Tensor embeddings = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    names.push_back("e" + std::to_string(i));
  }
  auto store = core::EmbeddingStore::Create(std::move(names),
                                            std::move(embeddings));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

bool SameNeighbors(const std::vector<core::EmbeddingStore::Neighbor>& a,
                   const std::vector<core::EmbeddingStore::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].id != b[i].id ||
        a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

TEST(SnapshotManagerTest, StartsEmpty) {
  SnapshotManager manager;
  EXPECT_EQ(manager.Current(), nullptr);
  EXPECT_FALSE(manager.has_snapshot());
  EXPECT_EQ(manager.version(), 0u);
}

TEST(SnapshotManagerTest, SwapPublishesAndVersions) {
  SnapshotManager manager;
  EXPECT_EQ(manager.Swap(MakeStore(10, 4, 1)), 1u);
  auto first = manager.Current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->store.size(), 10);

  EXPECT_EQ(manager.Swap(MakeStore(20, 4, 2)), 2u);
  auto second = manager.Current();
  EXPECT_EQ(second->version, 2u);
  EXPECT_EQ(second->store.size(), 20);
  // The pinned old snapshot is untouched by the swap.
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->store.size(), 10);
  EXPECT_EQ(manager.version(), 2u);
}

TEST(SnapshotManagerTest, LoadAndSwapRoundTrips) {
  const std::string path = "/tmp/sdea_serve_snapshot_test.bin";
  const core::EmbeddingStore original = MakeStore(30, 8, 3);
  SDEA_CHECK_OK(original.Save(path));

  SnapshotManager manager;
  auto version = manager.LoadAndSwap(path);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  auto snap = manager.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->store.size(), 30);
  std::remove(path.c_str());
}

TEST(SnapshotManagerTest, LoadAndSwapOfMissingFileKeepsCurrent) {
  SnapshotManager manager;
  manager.Swap(MakeStore(10, 4, 1));
  auto result = manager.LoadAndSwap("/tmp/sdea_serve_no_such_file.bin");
  EXPECT_FALSE(result.ok());
  // Failed load leaves the published snapshot untouched.
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.Current()->store.size(), 10);
}

TEST(SnapshotManagerTest, SwapWithKgPinsTheGraphState) {
  kg::KnowledgeGraph graph;
  const kg::EntityId a = graph.AddEntity("a");
  const kg::EntityId b = graph.AddEntity("b");
  const kg::RelationId r = graph.AddRelation("r");
  graph.AddRelationalTriple(a, r, b);

  SnapshotManager manager;
  EXPECT_EQ(manager.SwapWithKg(MakeStore(2, 4, 1), graph.Snapshot()), 1u);
  auto snap = manager.Current();
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(snap->has_kg());
  EXPECT_EQ(snap->kg.num_entities(), 2);
  EXPECT_EQ(snap->kg.num_relational_triples(), 1);
  EXPECT_EQ(snap->kg.entity_name(a), "a");

  // The writer keeps mutating the graph; the pinned serving snapshot still
  // answers against the graph state at publish time.
  const kg::EntityId c = graph.AddEntity("c");
  graph.AddRelationalTriple(b, r, c);
  EXPECT_EQ(snap->kg.num_entities(), 2);
  EXPECT_EQ(snap->kg.num_relational_triples(), 1);
  EXPECT_EQ(snap->kg.DegreeOf(b), 1);

  // A plain Swap publishes without a KG snapshot.
  EXPECT_EQ(manager.Swap(MakeStore(3, 4, 2)), 2u);
  EXPECT_FALSE(manager.Current()->has_kg());

  // Republishing with the mutated graph sees the new rows; the old pin is
  // untouched.
  EXPECT_EQ(manager.SwapWithKg(MakeStore(3, 4, 3), graph.Snapshot()), 3u);
  auto latest = manager.Current();
  ASSERT_TRUE(latest->has_kg());
  EXPECT_EQ(latest->kg.num_entities(), 3);
  EXPECT_EQ(latest->kg.num_relational_triples(), 2);
  EXPECT_GT(latest->kg.epoch(), snap->kg.epoch());
  EXPECT_EQ(snap->kg.num_entities(), 2);
}

TEST(SnapshotManagerTest, HotSwapUnderQueryLoadIsCoherent) {
  // Two distinguishable stores; deterministic construction means each
  // version's expected answers can be precomputed exactly.
  constexpr int64_t kN = 120, kD = 8, kK = 5;
  const core::EmbeddingStore store_a = MakeStore(kN, kD, 10);
  const core::EmbeddingStore store_b = MakeStore(kN, kD, 20);

  Rng rng(99);
  std::vector<Tensor> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(Tensor::RandomNormal({kD}, 1.0f, &rng));
  }
  std::vector<std::vector<core::EmbeddingStore::Neighbor>> expected_a,
      expected_b;
  for (const Tensor& q : queries) {
    expected_a.push_back(store_a.NearestNeighbors(q, kK));
    expected_b.push_back(store_b.NearestNeighbors(q, kK));
  }

  SnapshotManager manager;
  manager.Swap(MakeStore(kN, kD, 10));

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (int round = 0; round < 50; ++round) {
      manager.Swap(MakeStore(kN, kD, round % 2 == 0 ? 20 : 10));
    }
    done.store(true);
  });

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      size_t q = static_cast<size_t>(c);
      while (!done.load()) {
        q = (q + 1) % queries.size();
        // Pin one snapshot; every read below sees one coherent store even
        // if the swapper publishes a replacement mid-query.
        auto snap = manager.Current();
        ASSERT_NE(snap, nullptr);
        const auto got = snap->store.NearestNeighbors(queries[q], kK);
        ASSERT_TRUE(SameNeighbors(got, expected_a[q]) ||
                    SameNeighbors(got, expected_b[q]))
            << "answer matches neither snapshot generation, query " << q;
      }
    });
  }
  swapper.join();
  for (std::thread& t : clients) t.join();
  EXPECT_GE(manager.version(), 51u);
}

}  // namespace
}  // namespace sdea::serve
