// Quickstart: generate a small synthetic KG pair, train SDEA, and evaluate
// entity alignment — the whole public API in ~60 lines.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "base/logging.h"
#include "core/sdea.h"
#include "datagen/generator.h"
#include "eval/table_printer.h"

int main() {
  using namespace sdea;

  // 1) A small DBP15K-flavoured benchmark pair (see datagen/presets.h for
  //    the paper-scale presets).
  datagen::GeneratorConfig gen_config;
  gen_config.name = "quickstart";
  gen_config.seed = 7;
  gen_config.num_matched = 300;
  gen_config.kg2_name_mode = datagen::NameMode::kTranslated;
  gen_config.kg1_lang_seed = 1;
  gen_config.kg2_lang_seed = 2;  // Disjoint surface forms: cross-lingual.
  datagen::BenchmarkGenerator generator;
  datagen::GeneratedBenchmark bench = generator.Generate(gen_config);
  auto print_counts = [](const char* label, const kg::KnowledgeGraph& g) {
    const kg::KgSnapshot snap = g.Snapshot();
    std::printf("%s: %lld entities, %lld rel triples, %lld attr triples\n",
                label, static_cast<long long>(snap.num_entities()),
                static_cast<long long>(snap.num_relational_triples()),
                static_cast<long long>(snap.num_attribute_triples()));
  };
  print_counts("KG1", bench.kg1);
  print_counts("KG2", bench.kg2);

  // 2) Split the ground truth 2:1:7 (train : valid : test), as in the paper.
  kg::AlignmentSeeds seeds =
      kg::AlignmentSeeds::Split(bench.ground_truth, /*seed=*/11);
  std::printf("seeds: %zu train / %zu valid / %zu test\n",
              seeds.train.size(), seeds.valid.size(), seeds.test.size());

  // 3) Train SDEA (attribute pre-training, then relation + joint training).
  core::SdeaConfig config;
  config.attribute.text.max_epochs = 10;
  config.attribute.text.patience = 3;
  config.relation.max_epochs = 15;
  config.relation.patience = 3;
  core::SdeaModel model;
  auto report = model.Fit(bench.kg1, bench.kg2, seeds, config);
  if (!report.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  // 4) Evaluate on the held-out test pairs.
  const eval::RankingMetrics m = model.Evaluate(seeds.test);
  eval::TablePrinter table({"Model", "H@1", "H@10", "MRR"});
  table.AddRow({"SDEA", eval::FormatPercent(m.hits_at_1),
                eval::FormatPercent(m.hits_at_10), eval::FormatMrr(m.mrr)});
  table.Print();
  return 0;
}
