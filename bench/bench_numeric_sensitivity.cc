// Section V-B1 error analysis: the transformer handles numeric attribute
// values poorly (~40% of D-W values are numeric). This bench sweeps the
// numeric share on the OpenEA-style preset and reports attribute-only SDEA
// accuracy — the shape should be monotonically decreasing.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/numeric_channel.h"

namespace {

// Weight of the numeric channel against the unit-norm entity embedding.
constexpr float kNumericChannelWeight = 0.5f;

}  // namespace

int main(int argc, char** argv) {
  using namespace sdea;
  const bench::BenchOptions options = bench::ParseOptions(argc, argv);
  const datagen::DatasetSpec base = datagen::OpenEaPresets()[0];

  eval::TablePrinter table({"numeric share", "H@1", "H@10", "MRR",
                            "H@1 +numeric channel"});
  for (const double share : {0.1, 0.4, 0.7}) {
    datagen::DatasetSpec spec = base;
    spec.config.numeric_share = share;
    const bench::DatasetRun run = bench::PrepareDataset(spec, options);
    core::SdeaConfig config = bench::DefaultSdeaConfig(options);
    config.use_relation_module = false;  // Isolate the text encoder.
    const bench::SdeaRun r = bench::RunSdea(run, config);
    // The paper's proposed fix: dedicated numeric-value handling
    // (core/numeric_channel) evaluated on the same run.
    const Tensor num1 = core::ComputeNumericFeatures(run.bench.kg1);
    const Tensor num2 = core::ComputeNumericFeatures(run.bench.kg2);
    const Tensor e1 = core::ConcatNumericChannel(r.model->embeddings1(), num1,
                                                 kNumericChannelWeight);
    const Tensor e2 = core::ConcatNumericChannel(r.model->embeddings2(), num2,
                                                 kNumericChannelWeight);
    const double with_numeric =
        eval::EvaluatePairs(e1, e2, run.seeds.test).hits_at_1;
    table.AddRow({eval::FormatPercent(100.0 * share) + "%",
                  eval::FormatPercent(r.full.metrics.hits_at_1),
                  eval::FormatPercent(r.full.metrics.hits_at_10),
                  eval::FormatMrr(r.full.metrics.mrr),
                  eval::FormatPercent(with_numeric)});
    std::printf("[numeric] share=%.0f%% H@1=%.1f (+channel %.1f) (%.1fs)\n",
                100.0 * share, r.full.metrics.hits_at_1, with_numeric,
                r.full.seconds);
  }
  std::printf(
      "\n=== Numeric-value sensitivity (OpenEA D-W preset, attr-only) "
      "===\n");
  table.Print();
  return 0;
}
