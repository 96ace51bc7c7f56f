// Million-entity-style serving with sdea::store: quantize an embedding
// table into a sharded, memory-mapped SDEASTOR1 snapshot, reopen it in
// O(ms), answer queries through ADC candidate generation + exact rerank,
// and stand an AlignmentServer on it — the deployment shape for stores too
// large to hold resident in full precision.
//
// Build & run:  ./build/examples/quantized_store

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/embedding_store.h"
#include "datagen/presets.h"
#include "serve/server.h"
#include "store/quantized_store.h"
#include "tensor/tensor.h"

int main() {
  using namespace sdea;
  using Clock = std::chrono::steady_clock;

  // ---- Offline: an entity table at (scaled-down) million-preset shape. ----
  // The d_w_1m datagen preset is the headline 1M-entity configuration;
  // 1/100 scale keeps this example instant. Random-normal embeddings stand
  // in for trained ones — the store layer only sees names + vectors.
  const datagen::DatasetSpec spec = datagen::MillionScalePreset();
  const datagen::GeneratorConfig cfg =
      datagen::ScaledConfig(spec.config, 0.01);
  const datagen::GeneratedBenchmark bench =
      datagen::BenchmarkGenerator().Generate(cfg);
  std::vector<std::string> names;
  for (kg::EntityId e = 0; e < bench.kg2.num_entities(); ++e) {
    names.push_back(bench.kg2.entity_name(e));
  }
  const auto n = static_cast<int64_t>(names.size());
  const int64_t dim = 128;
  Rng rng(7);
  Tensor embeddings = Tensor::RandomNormal({n, dim}, 1.0f, &rng);
  std::printf("entity table: %lld entities x %lld dims (%s preset @ 1%%)\n",
              (long long)n, (long long)dim, spec.id.c_str());

  // ---- Write a sharded int8 snapshot. ------------------------------------
  const std::string int8_dir = "/tmp/sdea_example_store_int8";
  store::StoreWriteOptions int8_opts;
  int8_opts.rows_per_shard = 4096;  // Several shards even at example scale.
  SDEA_CHECK_OK(
      store::QuantizedStore::Write(int8_dir, names, embeddings, int8_opts));

  // ---- Reopen: O(ms), only manifest + shard headers touched. --------------
  const auto t0 = Clock::now();
  auto int8_store = store::QuantizedStore::Open(int8_dir);
  SDEA_CHECK(int8_store.ok());
  const double open_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::printf("reopened the snapshot (mmap) in %.2f ms\n", open_ms);
  std::printf("  int8: %.1f MB codes vs %.1f MB fp32  (%.1fx)\n",
              static_cast<double>(int8_store->compressed_bytes()) / (1 << 20),
              static_cast<double>(int8_store->full_precision_bytes()) /
                  (1 << 20),
              static_cast<double>(int8_store->full_precision_bytes()) /
                  static_cast<double>(int8_store->compressed_bytes()));

  // ---- Compressed candidates + exact rerank == full-precision answers. ----
  auto reference = core::EmbeddingStore::Create(names, embeddings);
  SDEA_CHECK(reference.ok());
  Rng qrng(21);
  int agree = 0;
  const int kQueries = 50;
  for (int q = 0; q < kQueries; ++q) {
    Tensor query = Tensor::RandomNormal({dim}, 1.0f, &qrng);
    const auto exact = reference->NearestNeighbors(query, 1);
    const auto quant = int8_store->NearestNeighbors(query, 1);
    if (exact[0].id == quant[0].id &&
        exact[0].similarity == quant[0].similarity) {
      ++agree;
    }
  }
  std::printf("int8 ADC + exact rerank: top-1 bitwise-equal to the "
              "full-precision scan on %d/%d queries\n",
              agree, kQueries);

  // ---- Online: serve straight off the mmap'd snapshot. --------------------
  serve::ServerOptions options;
  options.batcher.max_batch_size = 16;
  serve::AlignmentServer server(options);
  auto version = server.LoadQuantizedSnapshot(int8_dir);
  SDEA_CHECK(version.ok());
  Tensor probe = Tensor::RandomNormal({dim}, 1.0f, &qrng);
  auto hits = server.AlignEmbedding(probe, 3);
  SDEA_CHECK(hits.ok());
  std::printf("\nserving snapshot v%llu (quantized, %lld entities):\n",
              (unsigned long long)*version,
              (long long)server.snapshot()->size());
  for (const auto& h : *hits) {
    std::printf("  %s (%.3f)\n", h.name.c_str(), h.similarity);
  }
  return 0;
}
