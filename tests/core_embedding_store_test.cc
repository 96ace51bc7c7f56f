#include "core/embedding_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>

#include "base/fileio.h"

namespace sdea::core {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

EmbeddingStore MakeStore() {
  Tensor emb({3, 2}, {1, 0, 0, 1, 1, 1});
  auto store = EmbeddingStore::Create({"alpha", "beta", "gamma"},
                                      std::move(emb));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

TEST(EmbeddingStoreTest, CreateValidates) {
  EXPECT_FALSE(
      EmbeddingStore::Create({"a"}, Tensor({2, 2})).ok());  // Size mismatch.
  EXPECT_FALSE(
      EmbeddingStore::Create({"a", "a"}, Tensor({2, 2})).ok());  // Dup name.
  EXPECT_TRUE(EmbeddingStore::Create({"a", "b"}, Tensor({2, 2}, 1.0f)).ok());
}

TEST(EmbeddingStoreTest, RowsAreNormalized) {
  const EmbeddingStore store = MakeStore();
  for (int64_t i = 0; i < store.size(); ++i) {
    EXPECT_NEAR(store.embeddings().Row(i).Norm(), 1.0f, 1e-5f);
  }
}

TEST(EmbeddingStoreTest, FindAndGet) {
  const EmbeddingStore store = MakeStore();
  auto id = store.Find("beta");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1);
  EXPECT_FALSE(store.Find("delta").ok());
  auto row = store.Get("alpha");
  ASSERT_TRUE(row.ok());
  EXPECT_NEAR((*row)[0], 1.0f, 1e-6f);
}

TEST(EmbeddingStoreTest, NearestNeighborsExact) {
  const EmbeddingStore store = MakeStore();
  const auto nn = store.NearestNeighbors(Tensor::FromVector({1, 0.1f}), 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].name, "alpha");
  EXPECT_GE(nn[0].similarity, nn[1].similarity);
}

TEST(EmbeddingStoreTest, NearestNeighborsWithIndex) {
  Rng rng(5);
  const int64_t n = 200;
  Tensor emb = Tensor::RandomNormal({n, 8}, 1.0f, &rng);
  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) names.push_back("e" + std::to_string(i));
  auto store_r = EmbeddingStore::Create(std::move(names), std::move(emb));
  ASSERT_TRUE(store_r.ok());
  EmbeddingStore store = std::move(store_r).value();
  EXPECT_FALSE(store.has_index());
  store.BuildIndex();
  EXPECT_TRUE(store.has_index());
  // Querying an existing row returns that row first.
  const auto nn = store.NearestNeighbors(store.embeddings().Row(17), 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 17);
  EXPECT_NEAR(nn[0].similarity, 1.0f, 1e-4f);
}

TEST(EmbeddingStoreTest, SaveLoadRoundTrip) {
  const EmbeddingStore store = MakeStore();
  const std::string path = TempPath("sdea_emb_store.bin");
  ASSERT_TRUE(store.Save(path).ok());
  auto loaded = EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 3);
  EXPECT_EQ(loaded->dim(), 2);
  EXPECT_EQ(loaded->names(), store.names());
  for (int64_t i = 0; i < store.embeddings().size(); ++i) {
    EXPECT_EQ(loaded->embeddings()[i], store.embeddings()[i]);
  }
}

TEST(EmbeddingStoreTest, LoadRejectsGarbage) {
  const std::string path = TempPath("sdea_emb_garbage.bin");
  ASSERT_TRUE(WriteStringToFile(path, "nope").ok());
  EXPECT_FALSE(EmbeddingStore::Load(path).ok());
}

TEST(EmbeddingStoreTest, SaveLeavesNoTempResidue) {
  const EmbeddingStore store = MakeStore();
  const std::string path = TempPath("sdea_emb_atomic.bin");
  ASSERT_TRUE(store.Save(path).ok());
  // The atomic-save temp file must be renamed away, never left behind.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(tmp));
  // Overwriting an existing artifact is also atomic and clean.
  ASSERT_TRUE(store.Save(path).ok());
  EXPECT_FALSE(FileExists(tmp));
}

TEST(EmbeddingStoreTest, PartialFileFailsLoadCleanly) {
  // A crash mid-save can no longer produce a partial artifact (temp +
  // rename), but a torn file could still arrive via other channels (e.g.
  // truncated download). Load must reject every prefix cleanly rather
  // than crash or fabricate a store.
  const EmbeddingStore store = MakeStore();
  const std::string path = TempPath("sdea_emb_partial.bin");
  ASSERT_TRUE(store.Save(path).ok());
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  const std::string& bytes = *full;
  ASSERT_GT(bytes.size(), 8u);
  const std::string partial_path = TempPath("sdea_emb_partial_cut.bin");
  // Every strict prefix is invalid: cut inside the magic, the header, the
  // name block, and the float payload.
  for (const size_t cut :
       {size_t{4}, size_t{12}, size_t{30}, bytes.size() - 1}) {
    ASSERT_LT(cut, bytes.size());
    ASSERT_TRUE(
        WriteStringToFile(partial_path, bytes.substr(0, cut)).ok());
    auto loaded = EmbeddingStore::Load(partial_path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
}

TEST(EmbeddingStoreTest, NearestNeighborsEdgeCases) {
  const EmbeddingStore store = MakeStore();
  const Tensor query = Tensor::FromVector({1, 0.1f});
  // k <= 0 yields an empty answer rather than UB in the partial sort.
  EXPECT_TRUE(store.NearestNeighbors(query, 0).empty());
  EXPECT_TRUE(store.NearestNeighbors(query, -7).empty());
  // k > size clamps.
  EXPECT_EQ(store.NearestNeighbors(query, 100).size(), 3u);
  // An empty store answers nothing, for any query.
  auto empty_r = EmbeddingStore::Create({}, Tensor({0, 2}));
  ASSERT_TRUE(empty_r.ok());
  const EmbeddingStore empty = std::move(empty_r).value();
  EXPECT_EQ(empty.size(), 0);
  EXPECT_TRUE(empty.NearestNeighbors(query, 5).empty());
}

TEST(EmbeddingStoreTest, DimCheckedBeforeEmptyAndKEarlyReturns) {
  // The dim contract must hold in BOTH orders relative to the early
  // returns: a wrong-dim query aborts even when the store is empty or
  // k <= 0 — previously the empty-store return ran first and silently
  // accepted any query shape, while serve's guard rejected it, so the two
  // layers disagreed about the same request.
  auto empty_r = EmbeddingStore::Create({}, Tensor({0, 2}));
  ASSERT_TRUE(empty_r.ok());
  const EmbeddingStore empty = std::move(empty_r).value();
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.dim(), 2);  // Known even with zero rows.
  // Right dim, empty store: clean empty answer.
  EXPECT_TRUE(empty.NearestNeighbors(Tensor::FromVector({1, 0}), 5).empty());
  // Wrong dim dies regardless of which early-return would otherwise fire.
  EXPECT_DEATH(empty.NearestNeighbors(Tensor::FromVector({1, 0, 0}), 5),
               "query.size");
  const EmbeddingStore store = MakeStore();  // 3 rows, dim 2.
  EXPECT_DEATH(store.NearestNeighbors(Tensor::FromVector({1, 0, 0}), 0),
               "query.size");
  EXPECT_DEATH(store.NearestNeighbors(Tensor::FromVector({1}), -7),
               "query.size");
  // A default-constructed store (rank-0 embeddings) reports no dim; only
  // stores built from a rank-2 matrix ever reach NearestNeighbors.
  const EmbeddingStore dimless;
  EXPECT_EQ(dimless.dim(), 0);
}

TEST(EmbeddingStoreTest, EmptyStoreRoundTripKeepsDim) {
  // Encode/Decode must preserve the column dim of an empty [0, d] store so
  // a decoded snapshot enforces the same query contract as the original.
  auto empty_r = EmbeddingStore::Create({}, Tensor({0, 7}));
  ASSERT_TRUE(empty_r.ok());
  const std::string blob = empty_r->Encode();
  auto decoded = EmbeddingStore::Decode(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 0);
  EXPECT_EQ(decoded->dim(), 7);
}

TEST(EmbeddingStoreTest, NearestNeighborsEdgeCasesWithIndex) {
  Rng rng(8);
  Tensor emb = Tensor::RandomNormal({20, 4}, 1.0f, &rng);
  std::vector<std::string> names;
  for (int64_t i = 0; i < 20; ++i) names.push_back("e" + std::to_string(i));
  auto store_r = EmbeddingStore::Create(std::move(names), std::move(emb));
  ASSERT_TRUE(store_r.ok());
  EmbeddingStore store = std::move(store_r).value();
  store.BuildIndex();
  const Tensor query = Tensor::RandomNormal({4}, 1.0f, &rng);
  EXPECT_TRUE(store.NearestNeighbors(query, 0).empty());
  EXPECT_TRUE(store.NearestNeighbors(query, -1).empty());
  EXPECT_LE(store.NearestNeighbors(query, 500).size(), 20u);
}

TEST(EmbeddingStoreTest, IvfAnswersAreSortedOnNearDuplicateRows) {
  // Each odd row is the row before it plus N(0, 1e-6) noise, so pairs of
  // rows score within a few ulps of each other. An IVF answer must still
  // come back in the store's own order: similarities never increase and
  // equal scores list ascending ids. When the index ranked a second,
  // re-normalized copy of the table while the store reported scores
  // against its own rows, 104 of these 500 answers came back unsorted and
  // 59 had a negative top1 - top2 margin, which the abstain rule rejects.
  const int64_t n = 500, d = 64;
  Rng rng(41);
  Tensor emb = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  for (int64_t i = 1; i < n; i += 2) {
    for (int64_t j = 0; j < d; ++j) {
      emb.at(i, j) =
          emb.at(i - 1, j) + static_cast<float>(rng.Normal(0.0, 1e-6));
    }
  }
  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) names.push_back("e" + std::to_string(i));
  auto store_r = EmbeddingStore::Create(std::move(names), emb);
  ASSERT_TRUE(store_r.ok());
  EmbeddingStore store = std::move(store_r).value();
  store.BuildIndex();

  Rng query_rng(42);
  int64_t unsorted = 0, negative_margin = 0;
  for (int64_t q = 0; q < n; ++q) {
    Tensor query = emb.Row(q);
    for (int64_t j = 0; j < d; ++j) {
      query[j] += static_cast<float>(query_rng.Normal(0.0, 0.3));
    }
    const auto nn = store.NearestNeighbors(query, 10);
    ASSERT_FALSE(nn.empty());
    bool sorted = true;
    for (size_t i = 1; i < nn.size(); ++i) {
      const EmbeddingStore::Neighbor& a = nn[i - 1];
      const EmbeddingStore::Neighbor& b = nn[i];
      if (a.similarity < b.similarity ||
          (a.similarity == b.similarity && a.id > b.id)) {
        sorted = false;
      }
    }
    if (!sorted) ++unsorted;
    if (nn.size() > 1 && nn[0].similarity - nn[1].similarity < 0.0f) {
      ++negative_margin;
    }
  }
  EXPECT_EQ(unsorted, 0) << "of " << n << " answers";
  EXPECT_EQ(negative_margin, 0) << "of " << n << " answers";
}

}  // namespace
}  // namespace sdea::core
