// Section V-B2: long-tail analysis. Evaluates SDEA per degree bucket
// (1-3 / 4-5 / 6-10 / >10) on an SRPRS-style dataset, against a
// structure-only baseline — SDEA's margin must be widest on the low-degree
// buckets, where graph methods starve.
#include <cstdio>

#include "bench/bench_util.h"
#include "baselines/gcn_align.h"

int main(int argc, char** argv) {
  using namespace sdea;
  const bench::BenchOptions options = bench::ParseOptions(argc, argv);
  const datagen::DatasetSpec spec = datagen::SrprsPresets()[0];  // EN-FR.
  const bench::DatasetRun run = bench::PrepareDataset(spec, options);
  std::printf("[longtail] dataset %s (%lld matched entities)\n",
              spec.config.name.c_str(),
              static_cast<long long>(
                  bench::DefaultMatchedEntities(spec, options)));

  const std::vector<int64_t> buckets{3, 5, 10};
  const char* bucket_names[] = {"deg 1-3", "deg 4-5", "deg 6-10",
                                "deg >10"};

  // SDEA per-bucket.
  const bench::SdeaRun sdea =
      bench::RunSdea(run, bench::DefaultSdeaConfig(options));
  const auto sdea_buckets =
      sdea.model->EvaluateByDegree(run.bench.kg1, run.seeds.test, buckets);

  // Structure-only baseline per-bucket.
  auto gcn_config = baselines::GcnConfig();
  gcn_config.epochs = options.fast ? 40 : 120;
  baselines::GcnAlign gcn(gcn_config);
  const baselines::AlignInput input{run.bench.kg1, run.bench.kg2, run.seeds};
  SDEA_CHECK_OK(gcn.Fit(input));
  // Bucket the GCN results with the same machinery.
  Tensor src({static_cast<int64_t>(run.seeds.test.size()),
              gcn.embeddings1().dim(1)});
  std::vector<int64_t> gold, degrees;
  const kg::KgSnapshot snap1 = run.bench.kg1.Snapshot();
  for (size_t i = 0; i < run.seeds.test.size(); ++i) {
    src.SetRow(static_cast<int64_t>(i),
               gcn.embeddings1().Row(run.seeds.test[i].first));
    gold.push_back(run.seeds.test[i].second);
    degrees.push_back(snap1.DegreeOf(run.seeds.test[i].first));
  }
  const auto gcn_buckets = eval::EvaluateByDegree(
      src, gcn.embeddings2(), gold, degrees, buckets);

  eval::TablePrinter table(
      {"Bucket", "queries", "GCN H@1", "SDEA H@1", "SDEA H@10"});
  for (size_t b = 0; b < sdea_buckets.size(); ++b) {
    table.AddRow({bucket_names[b],
                  std::to_string(sdea_buckets[b].num_queries),
                  eval::FormatPercent(gcn_buckets[b].hits_at_1),
                  eval::FormatPercent(sdea_buckets[b].hits_at_1),
                  eval::FormatPercent(sdea_buckets[b].hits_at_10)});
  }
  std::printf("\n=== Long-tail degree buckets (SRPRS EN-FR) ===\n");
  table.Print();
  return 0;
}
