#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace sdea::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

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

// A deterministic per-row encoder: row i depends only on texts[i] (FNV-1a
// hashed character features), so encoding a text inside any batch yields
// the same bits as encoding it alone — the BatchEncoderFn contract.
Tensor HashEncode(const std::vector<std::string>& texts, int64_t dim) {
  Tensor out({static_cast<int64_t>(texts.size()), dim});
  for (size_t i = 0; i < texts.size(); ++i) {
    uint64_t h = 1469598103934665603ull;
    for (char ch : texts[i]) {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
      out.at(static_cast<int64_t>(i), static_cast<int64_t>(h % dim)) +=
          1.0f + static_cast<float>((h >> 32) % 5) * 0.25f;
    }
  }
  return out;
}

void ExpectSameNeighbors(
    const std::vector<Neighbor>& got, const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].id, want[i].id);
    // Exact equality: the batched path must run the identical per-row
    // computation as a serial call, down to the float bits.
    EXPECT_EQ(got[i].similarity, want[i].similarity);
  }
}

TEST(AlignmentServerTest, NoSnapshotFailsCleanly) {
  AlignmentServer server;
  auto result = server.AlignEmbedding(Tensor::FromVector({1.0f, 0.0f}), 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.stats().failed_queries, 1u);
}

TEST(AlignmentServerTest, EmbeddingQueryMatchesDirectStoreCall) {
  AlignmentServer server;
  server.SwapSnapshot(MakeStore(200, 16, 7));
  Rng rng(1);
  const Tensor query = Tensor::RandomNormal({16}, 1.0f, &rng);
  auto snap = server.snapshot();
  ASSERT_NE(snap, nullptr);
  const auto expected = snap->store.NearestNeighbors(query, 5);
  auto result = server.AlignEmbedding(query, 5);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*result, expected);
  EXPECT_EQ(server.stats().embedding_queries, 1u);
}

TEST(AlignmentServerTest, KEdgeCases) {
  AlignmentServer server;
  server.SwapSnapshot(MakeStore(10, 8, 7));
  Rng rng(2);
  const Tensor query = Tensor::RandomNormal({8}, 1.0f, &rng);
  auto zero = server.AlignEmbedding(query, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
  auto negative = server.AlignEmbedding(query, -4);
  ASSERT_TRUE(negative.ok());
  EXPECT_TRUE(negative->empty());
  auto clamped = server.AlignEmbedding(query, 1000);
  ASSERT_TRUE(clamped.ok());
  EXPECT_LE(clamped->size(), 10u);
}

TEST(AlignmentServerTest, DimMismatchFailsOnlyThatRequest) {
  AlignmentServer server;
  server.SwapSnapshot(MakeStore(50, 8, 3));
  Rng rng(3);
  const Tensor good = Tensor::RandomNormal({8}, 1.0f, &rng);
  const Tensor bad = Tensor::RandomNormal({5}, 1.0f, &rng);
  auto good_future = server.AlignEmbeddingAsync(good, 3);
  auto bad_future = server.AlignEmbeddingAsync(bad, 3);
  auto good_result = good_future.get();
  auto bad_result = bad_future.get();
  ASSERT_TRUE(good_result.ok());
  EXPECT_EQ(good_result->size(), 3u);
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AlignmentServerTest, TextQueryWithoutEncoderFails) {
  AlignmentServer server;
  server.SwapSnapshot(MakeStore(10, 4, 1));
  auto result = server.AlignText("anything", 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AlignmentServerTest, TextQueriesHitTheCache) {
  std::atomic<int> encoder_calls{0};
  std::atomic<int> texts_encoded{0};
  auto encoder = [&](const std::vector<std::string>& texts) {
    encoder_calls.fetch_add(1);
    texts_encoded.fetch_add(static_cast<int>(texts.size()));
    return HashEncode(texts, 16);
  };
  AlignmentServer server(ServerOptions{}, encoder);
  server.SwapSnapshot(MakeStore(100, 16, 5));

  auto first = server.AlignText("Berlin City", 3);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 9; ++i) {
    auto repeat = server.AlignText("Berlin City", 3);
    ASSERT_TRUE(repeat.ok());
    ExpectSameNeighbors(*repeat, *first);
  }
  EXPECT_EQ(texts_encoded.load(), 1);  // Encoded once, then cached.
  const StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 9u);
  EXPECT_EQ(stats.encoded_texts, 1u);
  EXPECT_EQ(stats.text_queries, 10u);
}

TEST(AlignmentServerTest, NormalizationUnifiesSpellings) {
  std::atomic<int> texts_encoded{0};
  auto encoder = [&](const std::vector<std::string>& texts) {
    texts_encoded.fetch_add(static_cast<int>(texts.size()));
    return HashEncode(texts, 16);
  };
  AlignmentServer server(ServerOptions{}, encoder);
  server.SwapSnapshot(MakeStore(100, 16, 5));
  auto a = server.AlignText("Berlin  City", 3);
  auto b = server.AlignText("  berlin city ", 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameNeighbors(*b, *a);
  EXPECT_EQ(texts_encoded.load(), 1);  // One cache entry for both.
}

TEST(AlignmentServerTest, ConcurrentClientsMatchSerialAnswers) {
  // N client threads hammer the server with a mix of text and embedding
  // queries; every answer must be bitwise-equal to the serial
  // one-at-a-time answer computed up front. This is the determinism
  // contract of the whole request path: batching, caching, and pool
  // sharding must not change a single float bit.
  constexpr int64_t kDim = 16;
  constexpr int64_t kK = 5;
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 60;

  auto encoder = [](const std::vector<std::string>& texts) {
    return HashEncode(texts, kDim);
  };
  ServerOptions options;
  options.batcher.max_batch_size = 16;
  options.batcher.max_wait = microseconds(300);
  AlignmentServer server(options, encoder);
  server.SwapSnapshot(MakeStore(400, kDim, 11));

  // Shared query pool: texts overlap across clients so the cache and the
  // in-batch dedup both get exercised.
  std::vector<std::string> texts;
  std::vector<Tensor> embeddings;
  Rng rng(17);
  for (int i = 0; i < 24; ++i) {
    texts.push_back("attribute value " + std::to_string(i));
    embeddings.push_back(Tensor::RandomNormal({kDim}, 1.0f, &rng));
  }

  // Serial reference answers against the same pinned snapshot.
  auto snap = server.snapshot();
  ASSERT_NE(snap, nullptr);
  std::vector<std::vector<Neighbor>> expected_text, expected_embedding;
  for (const std::string& text : texts) {
    const Tensor encoded = encoder({text});
    expected_text.push_back(
        snap->store.NearestNeighbors(encoded.Row(0), kK));
  }
  for (const Tensor& e : embeddings) {
    expected_embedding.push_back(snap->store.NearestNeighbors(e, kK));
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const size_t q = static_cast<size_t>(c * 31 + i * 7) % texts.size();
        if ((c + i) % 2 == 0) {
          auto result = server.AlignText(texts[q], kK);
          ASSERT_TRUE(result.ok());
          ExpectSameNeighbors(*result, expected_text[q]);
        } else {
          auto result = server.AlignEmbedding(embeddings[q], kK);
          ASSERT_TRUE(result.ok());
          ExpectSameNeighbors(*result, expected_embedding[q]);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.queries,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.failed_queries, 0u);
  EXPECT_EQ(stats.batched_queries, stats.queries);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.text_queries);
  uint64_t hist_total = 0;
  for (uint64_t c : stats.batch_size_hist) hist_total += c;
  EXPECT_EQ(hist_total, stats.batches);
}

TEST(AlignmentServerTest, HotSwapDuringQueriesServesOneCoherentSnapshot) {
  constexpr int64_t kDim = 8;
  constexpr int64_t kK = 4;
  AlignmentServer server;

  // Two deterministic snapshot generations and their expected answers.
  Rng rng(23);
  std::vector<Tensor> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(Tensor::RandomNormal({kDim}, 1.0f, &rng));
  }
  server.SwapSnapshot(MakeStore(150, kDim, 40));
  auto snap_a = server.snapshot();
  server.SwapSnapshot(MakeStore(150, kDim, 41));
  auto snap_b = server.snapshot();
  std::vector<std::vector<Neighbor>> expected_a, expected_b;
  for (const Tensor& q : queries) {
    expected_a.push_back(snap_a->store.NearestNeighbors(q, kK));
    expected_b.push_back(snap_b->store.NearestNeighbors(q, kK));
  }

  auto matches = [](const std::vector<Neighbor>& got,
                    const std::vector<Neighbor>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].name != want[i].name || got[i].id != want[i].id ||
          got[i].similarity != want[i].similarity) {
        return false;
      }
    }
    return true;
  };

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (int round = 0; round < 30; ++round) {
      server.SwapSnapshot(MakeStore(150, kDim, round % 2 == 0 ? 40 : 41));
      std::this_thread::sleep_for(microseconds(200));
    }
    done.store(true);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      size_t q = static_cast<size_t>(c);
      while (!done.load()) {
        q = (q + 1) % queries.size();
        auto result = server.AlignEmbedding(queries[q], kK);
        // Every query issued during a swap must still succeed...
        ASSERT_TRUE(result.ok());
        // ...and must equal one generation's answer exactly — a batch can
        // never straddle two snapshots.
        ASSERT_TRUE(matches(*result, expected_a[q]) ||
                    matches(*result, expected_b[q]));
      }
    });
  }
  swapper.join();
  for (std::thread& t : clients) t.join();
  EXPECT_GE(server.stats().snapshot_swaps, 32u);
  EXPECT_EQ(server.stats().failed_queries, 0u);
}

TEST(AlignmentServerTest, LoadSnapshotServesSavedArtifact) {
  const std::string path = "/tmp/sdea_serve_server_artifact.bin";
  const core::EmbeddingStore original = MakeStore(60, 8, 9);
  SDEA_CHECK_OK(original.Save(path));

  AlignmentServer server;
  auto version = server.LoadSnapshot(path);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);

  Rng rng(4);
  const Tensor query = Tensor::RandomNormal({8}, 1.0f, &rng);
  auto result = server.AlignEmbedding(query, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  std::remove(path.c_str());
}

TEST(AlignmentServerTest, ReconfigureBatcherKeepsServing) {
  AlignmentServer server;
  server.SwapSnapshot(MakeStore(50, 8, 2));
  Rng rng(5);
  const Tensor query = Tensor::RandomNormal({8}, 1.0f, &rng);
  auto before = server.AlignEmbedding(query, 3);
  ASSERT_TRUE(before.ok());
  server.ReconfigureBatcher({.max_batch_size = 1,
                             .max_wait = microseconds(0)});
  auto after = server.AlignEmbedding(query, 3);
  ASSERT_TRUE(after.ok());
  ExpectSameNeighbors(*after, *before);
}

}  // namespace
}  // namespace sdea::serve
