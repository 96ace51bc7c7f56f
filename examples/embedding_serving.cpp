// Deploying a trained aligner with sdea::serve: export entity embeddings
// to an EmbeddingStore artifact, stand up an AlignmentServer on it, and
// answer concurrent alignment queries — batched, cached, and hot-swappable
// — the typical offline-train / online-serve split.
//
// Build & run:  ./build/examples/embedding_serving

#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "core/embedding_store.h"
#include "core/sdea.h"
#include "datagen/generator.h"
#include "serve/server.h"

int main() {
  using namespace sdea;

  // ---- Offline: train and export. ----------------------------------------
  datagen::GeneratorConfig gen;
  gen.seed = 51;
  gen.num_matched = 200;
  gen.kg1_lang_seed = 4;
  gen.kg2_lang_seed = 4;
  gen.kg2_name_mode = datagen::NameMode::kShared;
  const datagen::GeneratedBenchmark bench =
      datagen::BenchmarkGenerator().Generate(gen);
  const kg::AlignmentSeeds seeds =
      kg::AlignmentSeeds::Split(bench.ground_truth, 13);

  core::SdeaConfig config;
  config.attribute.text.max_epochs = 10;
  config.attribute.text.patience = 4;
  config.attribute.text.negatives_per_pair = 3;
  config.relation.max_epochs = 10;
  config.relation.patience = 4;
  core::SdeaModel model;
  auto report = model.Fit(bench.kg1, bench.kg2, seeds, config,
                          bench.pretrain_corpus);
  if (!report.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  // Export the target-side embeddings keyed by entity name.
  std::vector<std::string> names;
  for (kg::EntityId e = 0; e < bench.kg2.num_entities(); ++e) {
    names.push_back(bench.kg2.entity_name(e));
  }
  auto store =
      core::EmbeddingStore::Create(std::move(names), model.embeddings2());
  SDEA_CHECK(store.ok());
  const std::string artifact = "/tmp/sdea_serving_store.bin";
  SDEA_CHECK_OK(store->Save(artifact));  // Atomic: temp file + rename.
  std::printf("exported %lld embeddings (%lld dims) to %s\n",
              (long long)store->size(), (long long)store->dim(),
              artifact.c_str());

  // ---- Online: serve the artifact through an AlignmentServer. -------------
  // A toy text encoder over KG2 entity names: look the (normalized) name up
  // in the exported store. A real deployment would plug in the trained
  // attribute-text encoder here; the serving layer only requires that row i
  // of the output depend on texts[i] alone.
  const core::EmbeddingStore& exported = *store;
  serve::BatchEncoderFn name_encoder =
      [&exported](const std::vector<std::string>& texts) {
        Tensor out({static_cast<int64_t>(texts.size()), exported.dim()});
        for (size_t i = 0; i < texts.size(); ++i) {
          auto row = exported.Get(texts[i]);
          if (row.ok()) out.SetRow(static_cast<int64_t>(i), *row);
        }
        return out;
      };

  serve::ServerOptions options;
  options.batcher.max_batch_size = 16;
  options.normalize_text = false;  // KG names are already canonical.
  serve::AlignmentServer server(options, std::move(name_encoder));
  auto version = server.LoadSnapshot(artifact);
  SDEA_CHECK(version.ok());
  std::printf("serving snapshot v%llu loaded\n\n",
              (unsigned long long)*version);

  // Concurrent clients: each thread streams its test queries through the
  // batcher; answers are bitwise-identical to serial NearestNeighbors
  // calls, whatever the batching.
  int correct = 0, total = 0;
  {
    constexpr int kClients = 4;
    std::vector<std::future<std::vector<int>>> workers;
    for (int c = 0; c < kClients; ++c) {
      workers.push_back(std::async(std::launch::async, [&, c] {
        std::vector<int> outcome = {0, 0};  // {correct, total}.
        for (size_t i = c; i < seeds.test.size(); i += kClients) {
          const auto& [src, gold] = seeds.test[i];
          auto hits =
              server.AlignEmbedding(model.embeddings1().Row(src), 3);
          SDEA_CHECK(hits.ok());
          ++outcome[1];
          if (!hits->empty() &&
              (*hits)[0].name == bench.kg2.entity_name(gold)) {
            ++outcome[0];
          }
        }
        return outcome;
      }));
    }
    for (auto& w : workers) {
      const auto outcome = w.get();
      correct += outcome[0];
      total += outcome[1];
    }
  }
  std::printf("%d concurrent clients: %d/%d test queries resolved at "
              "rank 1\n",
              4, correct, total);

  // Text path: the first lookup encodes and caches; the repeat is a hit.
  const std::string probe = bench.kg2.entity_name(0);
  for (int round = 0; round < 2; ++round) {
    auto hits = server.AlignText(probe, 3);
    SDEA_CHECK(hits.ok());
    std::printf("text query %-24s ->", probe.c_str());
    for (const auto& h : *hits) {
      std::printf("  %s (%.2f)", h.name.c_str(), h.similarity);
    }
    std::printf("\n");
  }

  // Hot swap: publish a refreshed artifact with zero downtime. In-flight
  // queries finish on the snapshot they pinned; new ones see the new
  // version.
  auto refreshed = server.LoadSnapshot(artifact);
  SDEA_CHECK(refreshed.ok());
  std::printf("\nhot-swapped to snapshot v%llu (no restart, no dropped "
              "queries)\n",
              (unsigned long long)*refreshed);

  std::printf("\n--- serve stats ---\n%s", server.stats().ToString().c_str());
  return 0;
}
