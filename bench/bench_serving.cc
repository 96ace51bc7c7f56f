// Online-serving throughput bench: sdea::serve::AlignmentServer (request
// batching + text-embedding cache + snapshot pinning) against a naive
// baseline where every client thread encodes and searches per query with
// no serving layer in between.
//
// Two sweeps, both on a deterministic synthetic store:
//   1. Client-thread sweep at a fixed 25%-distinct text workload: naive
//      vs. served(max_batch=1, cache on) vs. served(batched, cache on).
//   2. Cache-hit sweep at 4 client threads: distinct-text fraction
//      {100%, 50%, 25%, 10%}, naive vs. served batched.
//
// On a single-core box the served wins come from *less total work* —
// cache hits skip the encoder entirely and in-batch dedup encodes each
// unique text once — not from parallel search, so the numbers are a lower
// bound for multi-core hosts.
//
// The full-size run exits nonzero unless served batched beats naive at 4
// client threads. --fast is a smoke run: its only gate is the bitwise
// served == direct check, and it prints the ratio without a verdict, since
// 100 queries per client thread finish too quickly for the ratio to
// separate batching from scheduling noise.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/embedding_store.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "text/normalizer.h"

namespace {

using namespace sdea;
using serve::AlignmentServer;

constexpr int64_t kTopK = 10;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic store; two calls with the same arguments answer queries
// identically, so the naive baseline and the server can each own a copy.
core::EmbeddingStore MakeStore(int64_t n, int64_t d) {
  Rng rng(17);
  Tensor embeddings = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) names.push_back("e" + std::to_string(i));
  auto store =
      core::EmbeddingStore::Create(std::move(names), std::move(embeddings));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

// Deterministic two-layer text encoder: hashed character trigrams ->
// hidden layer -> d-dim embedding. Stands in for the trained attribute
// encoder with a comparable per-text FLOP budget (the point of the bench
// is the serving layer, not the encoder quality). Row i depends only on
// texts[i], satisfying the BatchEncoderFn contract.
class HashTrigramEncoder {
 public:
  static constexpr int64_t kFeatures = 512;
  static constexpr int64_t kHidden = 256;

  explicit HashTrigramEncoder(int64_t dim) {
    Rng rng(23);
    w1_ = Tensor::RandomNormal({kFeatures, kHidden}, 0.1f, &rng);
    w2_ = Tensor::RandomNormal({kHidden, dim}, 0.1f, &rng);
  }

  Tensor operator()(const std::vector<std::string>& texts) const {
    const int64_t n = static_cast<int64_t>(texts.size());
    Tensor features({n, kFeatures}, 0.0f);
    for (int64_t i = 0; i < n; ++i) {
      const std::string& t = texts[static_cast<size_t>(i)];
      float* row = features.data() + i * kFeatures;
      for (size_t j = 0; j + 2 < t.size(); ++j) {
        uint64_t h = 1469598103934665603ull;
        for (size_t b = 0; b < 3; ++b) {
          h ^= static_cast<unsigned char>(t[j + b]);
          h *= 1099511628211ull;
        }
        row[h % kFeatures] += 1.0f;
      }
    }
    Tensor hidden = tmath::Matmul(features, w1_);
    for (int64_t i = 0; i < hidden.size(); ++i) {
      if (hidden[i] < 0.0f) hidden[i] = 0.0f;
    }
    return tmath::Matmul(hidden, w2_);
  }

 private:
  Tensor w1_, w2_;
};

// The query workload: every client draws from one shared pool of distinct
// texts, so the pool size controls the best achievable cache-hit rate.
std::vector<std::string> MakeTextPool(size_t distinct) {
  std::vector<std::string> pool;
  pool.reserve(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    pool.push_back("Entity " + std::to_string(i) + " of realm " +
                   std::to_string(i % 13) + ", kingdom " +
                   std::to_string((i * 7) % 29));
  }
  return pool;
}

// Deterministic per-(client, query) pool pick. Clients walk disjoint
// sequential slices, so with pool size == total queries every text is
// asked exactly once (a true 0%-reuse workload) and with a smaller pool
// the reuse fraction is exactly 1 - pool/total.
const std::string& PickText(const std::vector<std::string>& pool, int client,
                            int query, int queries_per_thread) {
  const size_t idx = (static_cast<size_t>(client) *
                          static_cast<size_t>(queries_per_thread) +
                      static_cast<size_t>(query)) %
                     pool.size();
  return pool[idx];
}

struct RunResult {
  double qps = 0.0;
  // Fraction of text queries that skipped the encoder (served runs only):
  // LRU-cache hits plus in-batch duplicates folded into one encoder row.
  double encoder_skip = 0.0;
  double mean_batch = 0.0;  // Served runs only.
};

// Baseline: no serving layer. Each client thread normalizes, encodes, and
// searches its own queries; repeated texts pay the encoder every time.
RunResult RunNaive(const core::EmbeddingStore& store,
                   const HashTrigramEncoder& encode,
                   const std::vector<std::string>& pool, int threads,
                   int queries_per_thread) {
  const double start = NowSeconds();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  for (int c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < queries_per_thread; ++q) {
        const std::string text = text::NormalizeText(
            PickText(pool, c, q, queries_per_thread));
        const Tensor embedding = encode({text});
        const auto answer =
            store.NearestNeighbors(embedding.Row(0), kTopK);
        SDEA_CHECK_EQ(answer.size(), static_cast<size_t>(kTopK));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  RunResult result;
  result.qps = threads * queries_per_thread / (NowSeconds() - start);
  return result;
}

RunResult RunServed(AlignmentServer* server,
                    const std::vector<std::string>& pool, int threads,
                    int queries_per_thread) {
  server->ClearCache();
  server->ResetStats();
  const double start = NowSeconds();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  for (int c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < queries_per_thread; ++q) {
        auto answer = server->AlignText(
            PickText(pool, c, q, queries_per_thread), kTopK);
        SDEA_CHECK(answer.ok());
        SDEA_CHECK_EQ(answer->size(), static_cast<size_t>(kTopK));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = NowSeconds() - start;
  const serve::StatsSnapshot stats = server->stats();
  RunResult result;
  result.qps = threads * queries_per_thread / seconds;
  if (stats.text_queries > 0) {
    result.encoder_skip =
        1.0 - static_cast<double>(stats.encoded_texts) /
                  static_cast<double>(stats.text_queries);
  }
  result.mean_batch = stats.mean_batch_size();
  return result;
}

void PrintRow(const char* mode, int threads, double distinct_frac,
              const RunResult& r, double naive_qps) {
  std::printf("  %-16s %7d %9.0f%% %10.0f %8.2fx %7.0f%% %10.2f\n", mode,
              threads, distinct_frac * 100.0, r.qps,
              naive_qps > 0.0 ? r.qps / naive_qps : 0.0,
              r.encoder_skip * 100.0, r.mean_batch);
}

void PrintHeader(const char* title) {
  std::printf("\n%s\n", title);
  std::printf("  %-16s %7s %10s %10s %9s %8s %10s\n", "mode", "threads",
              "distinct", "qps", "vs naive", "enc skip", "mean batch");
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }
  const int64_t n = fast ? 2000 : 20000;
  const int64_t d = 64;
  const int queries_per_thread = fast ? 100 : 400;

  std::printf("bench_serving: store n=%lld d=%lld, k=%lld, %d queries per "
              "client thread\n",
              static_cast<long long>(n), static_cast<long long>(d),
              static_cast<long long>(kTopK), queries_per_thread);

  const HashTrigramEncoder encode(d);

  // The naive baseline and the server each get an identical store, so both
  // sides search the exact same structure.
  const core::EmbeddingStore naive_store = MakeStore(n, d);

  // A short max_wait: with blocking single-in-flight clients, once every
  // client's request is queued no further request can arrive, so holding
  // the batch open past that point is pure stall. 20us is enough for the
  // just-unblocked clients to re-enqueue on a single core.
  serve::ServerOptions options;
  options.batcher.max_batch_size = 32;
  options.batcher.max_wait = std::chrono::microseconds(20);
  AlignmentServer server(options, [&encode](const auto& texts) {
    return encode(texts);
  });
  server.SwapSnapshot(MakeStore(n, d));

  // Sanity: the served answer is bitwise-identical to the naive one.
  {
    const std::vector<std::string> pool = MakeTextPool(8);
    const std::string text = text::NormalizeText(pool[3]);
    const auto direct =
        naive_store.NearestNeighbors(encode({text}).Row(0), kTopK);
    const auto served = server.AlignText(pool[3], kTopK);
    SDEA_CHECK(served.ok());
    SDEA_CHECK_EQ(direct.size(), served->size());
    for (size_t i = 0; i < direct.size(); ++i) {
      SDEA_CHECK_EQ(direct[i].id, (*served)[i].id);
      SDEA_CHECK(direct[i].similarity == (*served)[i].similarity);
    }
  }

  const serve::BatcherOptions unbatched{/*max_batch_size=*/1,
                                        std::chrono::microseconds(0)};
  const serve::BatcherOptions batched = options.batcher;

  // --- Sweep 1: client threads, 25% distinct texts. -----------------------
  PrintHeader("[thread sweep, 25% distinct texts]");
  double speedup_at_4 = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const size_t total =
        static_cast<size_t>(threads) * static_cast<size_t>(queries_per_thread);
    const std::vector<std::string> pool =
        MakeTextPool(std::max<size_t>(1, total / 4));
    const RunResult naive =
        RunNaive(naive_store, encode, pool, threads, queries_per_thread);
    PrintRow("naive", threads, 0.25, naive, naive.qps);
    server.ReconfigureBatcher(unbatched);
    const RunResult served_1 =
        RunServed(&server, pool, threads, queries_per_thread);
    PrintRow("served batch=1", threads, 0.25, served_1, naive.qps);
    server.ReconfigureBatcher(batched);
    const RunResult served_b =
        RunServed(&server, pool, threads, queries_per_thread);
    PrintRow("served batched", threads, 0.25, served_b, naive.qps);
    if (threads == 4) speedup_at_4 = served_b.qps / naive.qps;
  }

  // --- Sweep 2: cache-hit rate at 4 client threads. -----------------------
  PrintHeader("[cache sweep, 4 client threads, served batched]");
  const int threads = 4;
  const size_t total =
      static_cast<size_t>(threads) * static_cast<size_t>(queries_per_thread);
  for (const double frac : {1.0, 0.5, 0.25, 0.1}) {
    const std::vector<std::string> pool = MakeTextPool(
        std::max<size_t>(1, static_cast<size_t>(total * frac)));
    const RunResult naive =
        RunNaive(naive_store, encode, pool, threads, queries_per_thread);
    PrintRow("naive", threads, frac, naive, naive.qps);
    const RunResult served =
        RunServed(&server, pool, threads, queries_per_thread);
    PrintRow("served batched", threads, frac, served, naive.qps);
  }

  // --- Sweep 3: obs instrumentation overhead on the served hot path. ------
  // Same workload with trace spans force-enabled vs force-disabled; the
  // delta bounds what the batcher/encode/search spans cost per query.
  PrintHeader("[obs overhead, 4 client threads, 25% distinct]");
  {
    const std::vector<std::string> pool =
        MakeTextPool(std::max<size_t>(1, total / 4));
    const bool was_enabled = obs::Enabled();
    obs::SetEnabled(false);
    const RunResult obs_off =
        RunServed(&server, pool, threads, queries_per_thread);
    PrintRow("served obs off", threads, 0.25, obs_off, obs_off.qps);
    obs::SetEnabled(true);
    const RunResult obs_on =
        RunServed(&server, pool, threads, queries_per_thread);
    PrintRow("served obs on", threads, 0.25, obs_on, obs_off.qps);
    obs::SetEnabled(was_enabled);
    std::printf("  obs-enabled overhead: %+.1f%% qps\n",
                100.0 * (obs_off.qps - obs_on.qps) / obs_off.qps);
  }

  const bool pass = speedup_at_4 > 1.0;
  std::printf("\nbatched+cached vs naive at 4 client threads (25%% "
              "distinct): %.2fx %s\n",
              speedup_at_4, fast ? "(smoke run, no verdict)"
                            : pass ? "(PASS)" : "(FAIL)");
  return fast || pass ? 0 : 1;
}
