#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "base/check.h"
#include "base/strings.h"
#include "obs/export.h"
#include "baselines/bert_int_lite.h"
#include "baselines/cea.h"
#include "baselines/hman.h"
#include "baselines/jape.h"
#include "baselines/kecg.h"
#include "baselines/transedge.h"
#include "baselines/gcn_align.h"
#include "baselines/iptranse.h"
#include "baselines/mtranse.h"
#include "baselines/rsn4ea.h"
#include "baselines/transe_align.h"

namespace sdea::bench {

double NowSeconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

BenchOptions ParseOptions(int argc, char** argv) {
  // Flush the trace buffer on exit when SDEA_OBS_TRACE=<path> is set, so
  // any table bench can emit a chrome://tracing timeline without per-bench
  // wiring.
  std::atexit(+[] { (void)obs::MaybeWriteTraceFromEnv(); });
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      o.full = true;
    } else if (arg == "--fast") {
      o.fast = true;
    } else if (StartsWith(arg, "--scale=")) {
      o.scale = std::atof(arg.c_str() + std::strlen("--scale="));
      SDEA_CHECK_GT(o.scale, 0.0);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --scale=F --full --fast)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return o;
}

int64_t DefaultMatchedEntities(const datagen::DatasetSpec& spec,
                               const BenchOptions& options) {
  if (options.full) return spec.config.num_matched;
  // Reduced defaults: every 15K dataset runs at 400 matched entities, the
  // 100K dataset at 800 so the small-vs-large contrast of Table V remains.
  int64_t base = spec.config.num_matched >= 100'000 ? 800 : 400;
  if (options.fast) base /= 2;
  return std::max<int64_t>(
      100, static_cast<int64_t>(static_cast<double>(base) * options.scale));
}

DatasetRun PrepareDataset(const datagen::DatasetSpec& spec,
                          const BenchOptions& options) {
  DatasetRun run;
  run.spec = spec;
  datagen::GeneratorConfig cfg = spec.config;
  cfg.num_matched = DefaultMatchedEntities(spec, options);
  run.bench = datagen::BenchmarkGenerator().Generate(cfg);
  run.seeds = kg::AlignmentSeeds::Split(run.bench.ground_truth,
                                        /*seed=*/cfg.seed ^ 0x5eedULL);
  return run;
}

core::SdeaConfig DefaultSdeaConfig(const BenchOptions& options) {
  core::SdeaConfig c;
  c.attribute.text.encoder.dim = 32;
  c.attribute.text.encoder.num_heads = 4;
  c.attribute.text.encoder.num_layers = 2;
  c.attribute.text.encoder.ff_dim = 64;
  c.attribute.text.encoder.max_len = 64;
  c.attribute.text.out_dim = 32;
  c.attribute.text.max_epochs = options.fast ? 8 : 25;
  c.attribute.text.patience = 5;
  c.attribute.text.negatives_per_pair = 3;
  c.attribute.text.ssl_epochs = 2;
  c.attribute.text.pretrain.epochs = options.fast ? 8 : 16;
  c.relation.hidden_dim = 32;
  c.relation.joint_dim = 32;
  c.relation.max_epochs = options.fast ? 8 : 20;
  c.relation.patience = 4;
  c.relation.batch_size = 32;
  return c;
}

SdeaRun RunSdea(const DatasetRun& run, const core::SdeaConfig& config) {
  SdeaRun out;
  out.model = std::make_unique<core::SdeaModel>();
  const double t0 = NowSeconds();
  auto report = out.model->Fit(run.bench.kg1, run.bench.kg2, run.seeds,
                               config, run.bench.pretrain_corpus);
  SDEA_CHECK_MSG(report.ok(), "SDEA fit failed: %s",
                 report.status().ToString().c_str());
  const double elapsed = NowSeconds() - t0;
  out.full = MethodResult{"SDEA", out.model->Evaluate(run.seeds.test),
                          elapsed};
  out.without_rel =
      MethodResult{"SDEA w/o rel.",
                   out.model->EvaluateWithoutRelation(run.seeds.test), 0.0};
  return out;
}

namespace {

MethodResult TimeFit(baselines::EntityAligner* aligner,
                     const baselines::AlignInput& input,
                     const std::vector<std::pair<kg::EntityId, kg::EntityId>>&
                         test) {
  const double t0 = NowSeconds();
  Status s = aligner->Fit(input);
  SDEA_CHECK_MSG(s.ok(), "%s fit failed: %s", aligner->name().c_str(),
                 s.ToString().c_str());
  return MethodResult{aligner->name(), aligner->Evaluate(test),
                      NowSeconds() - t0};
}

}  // namespace

std::vector<MethodResult> RunBaselines(const DatasetRun& run,
                                       const BaselineRoster& roster,
                                       const BenchOptions& options) {
  const baselines::AlignInput input{run.bench.kg1, run.bench.kg2, run.seeds};
  std::vector<MethodResult> results;
  const int64_t transe_epochs = options.fast ? 40 : 100;
  const int64_t gcn_epochs = options.fast ? 40 : 120;

  if (roster.mtranse) {
    baselines::MTransE::Config c;
    c.transe.epochs = transe_epochs;
    baselines::MTransE m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.transe_align) {
    baselines::TransEAlign::Config c;
    c.transe.epochs = transe_epochs;
    baselines::TransEAlign m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.bootea) {
    baselines::TransEConfig tc;
    tc.epochs = transe_epochs;
    baselines::TransEAlign m(baselines::BootEaConfig(tc));
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.iptranse) {
    baselines::IpTransE::Config c;
    c.transe.epochs = transe_epochs / 4;
    c.epochs_per_iteration = transe_epochs / 4;
    baselines::IpTransE m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.rsn4ea) {
    baselines::Rsn4Ea::Config c;
    c.epochs = options.fast ? 4 : 10;
    baselines::Rsn4Ea m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.gcn) {
    auto c = baselines::GcnConfig();
    c.epochs = gcn_epochs;
    baselines::GcnAlign m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.gcn_align) {
    auto c = baselines::GcnAlignConfig();
    c.epochs = gcn_epochs;
    baselines::GcnAlign m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.gat) {
    auto c = baselines::GatAlignConfig();
    c.epochs = gcn_epochs;
    baselines::GcnAlign m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.rdgcn) {
    auto c = baselines::RdgcnLiteConfig();
    c.epochs = gcn_epochs;
    baselines::GcnAlign m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.bert_int) {
    baselines::BertIntLite::Config c;
    c.text.encoder.dim = 32;
    c.text.encoder.max_len = 16;
    c.text.out_dim = 32;
    c.text.max_epochs = options.fast ? 8 : 20;
    c.text.patience = 4;
    c.text.negatives_per_pair = 3;
    c.text.ssl_epochs = 1;
    c.text.pretrain.epochs = options.fast ? 8 : 16;
    baselines::BertIntLite m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.jape) {
    baselines::Jape::Config c;
    c.transe.epochs = transe_epochs;
    baselines::Jape m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.hman) {
    baselines::Hman::Config c;
    c.gcn.epochs = gcn_epochs;
    c.epochs = gcn_epochs / 2;
    baselines::Hman m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.transedge) {
    baselines::TransEdge::Config c;
    c.epochs = options.fast ? 10 : 25;
    baselines::TransEdge m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.kecg) {
    baselines::Kecg::Config c;
    baselines::Kecg m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
  }
  if (roster.cea) {
    baselines::Cea::Config c;
    c.gcn.epochs = gcn_epochs;
    baselines::Cea m(c);
    results.push_back(TimeFit(&m, input, run.seeds.test));
    // The full CEA row (stable matching) is Hits@1-only in the paper.
    MethodResult full;
    full.method = "CEA";
    full.metrics.hits_at_1 = m.StableHits1(run.seeds.test);
    full.metrics.num_queries =
        static_cast<int64_t>(run.seeds.test.size());
    full.hits1_only = true;
    results.push_back(full);
  }
  return results;
}

void ResultTable::Add(const std::string& dataset,
                      const MethodResult& result) {
  if (result.hits1_only) {
    AddHits1Only(dataset, result.method, result.metrics.hits_at_1);
    return;
  }
  if (std::find(datasets_.begin(), datasets_.end(), dataset) ==
      datasets_.end()) {
    datasets_.push_back(dataset);
  }
  if (std::find(methods_.begin(), methods_.end(), result.method) ==
      methods_.end()) {
    methods_.push_back(result.method);
  }
  cells_[{result.method, dataset}] = result;
}

void ResultTable::AddHits1Only(const std::string& dataset,
                               const std::string& method, double hits1) {
  if (std::find(datasets_.begin(), datasets_.end(), dataset) ==
      datasets_.end()) {
    datasets_.push_back(dataset);
  }
  if (std::find(methods_.begin(), methods_.end(), method) ==
      methods_.end()) {
    methods_.push_back(method);
  }
  hits1_only_[{method, dataset}] = hits1;
}

void ResultTable::Print() const {
  std::printf("\n=== %s ===\n", title_.c_str());
  std::vector<std::string> header{"Method"};
  for (const std::string& d : datasets_) {
    header.push_back(d + " H@1");
    header.push_back(d + " H@10");
    header.push_back(d + " MRR");
  }
  eval::TablePrinter table(header);
  for (const std::string& m : methods_) {
    std::vector<std::string> row{m};
    for (const std::string& d : datasets_) {
      auto it = cells_.find({m, d});
      if (it != cells_.end()) {
        row.push_back(eval::FormatPercent(it->second.metrics.hits_at_1));
        row.push_back(eval::FormatPercent(it->second.metrics.hits_at_10));
        row.push_back(eval::FormatMrr(it->second.metrics.mrr));
      } else {
        auto h1 = hits1_only_.find({m, d});
        if (h1 != hits1_only_.end()) {
          row.push_back(eval::FormatPercent(h1->second));
          row.push_back("-");
          row.push_back("-");
        } else {
          row.push_back("-");
          row.push_back("-");
          row.push_back("-");
        }
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::fflush(stdout);
}

}  // namespace sdea::bench
