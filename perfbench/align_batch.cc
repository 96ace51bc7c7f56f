// align_batch: the paper pipeline, offline. Attribute pre-training and
// fine-tuning (Algorithm 2), relation and joint training (Algorithm 3),
// calibrated match/abstain decisions on a pair where 30% of KG1 sources
// are dangling, then the trained KG2 table published to an
// AlignmentServer (fp32 store plus IVF index), queried once per
// evaluation source and read open-loop. Training (text, nn, autograd,
// train, core) does nearly all the work; it never touches the quantized
// store or incr.

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "core/alignment_pipeline.h"
#include "core/embedding_store.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "eval/abstention.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sdea;

constexpr double kDanglingRate = 0.3;
constexpr int64_t kMatchedPairs = 200;
// A fixed epoch budget (patience == max_epochs): both commits of a
// comparison train the same number of epochs, so a numerics change can
// never turn into a time change through early stopping.
constexpr int64_t kAttributeEpochs = 2;
constexpr int64_t kRelationEpochs = 10;
// Generation takes a few ms; one interval that short swings 2x, so setup
// is the median of many.
constexpr int kSetupRepeats = 31;
constexpr int kMinTimedRepeats = 3;
constexpr int64_t kTopK = 10;
// Open-loop reads of the published table after the timed passes, enough
// for a p99 with forty samples beyond it. A read's search takes about
// 0.02 ms, so 2000 qps keeps the dispatcher mostly idle. The median's
// spread across seeds was 0.10 of it at 500 qps and 0.01 at 2000 qps.
constexpr double kReadQps = 2000.0;
constexpr int64_t kReadRequests = 4000;

// The reduced bench configuration (the paper-table benches' light
// model), with the epoch budgets above and greedy per-source argmax
// decisions that abstain only through the calibrated rule.
core::PipelineConfig AlignConfig() {
  core::PipelineConfig c;
  core::TextEncoderConfig& text = c.model.attribute.text;
  text.encoder.dim = 32;
  text.encoder.num_heads = 4;
  text.encoder.num_layers = 2;
  text.encoder.ff_dim = 64;
  text.encoder.max_len = 64;
  text.out_dim = 32;
  text.max_epochs = kAttributeEpochs;
  text.patience = kAttributeEpochs;
  text.negatives_per_pair = 3;
  text.ssl_epochs = 1;
  text.pretrain.epochs = 16;
  c.model.relation.hidden_dim = 32;
  c.model.relation.joint_dim = 32;
  c.model.relation.max_epochs = kRelationEpochs;
  c.model.relation.patience = kRelationEpochs;
  c.model.relation.batch_size = 32;
  c.use_stable_matching = false;
  c.min_similarity = -std::numeric_limits<float>::infinity();
  return c;
}

// The generated pair plus the dangling-aware splits, all from the seed.
struct AlignData {
  datagen::GeneratedBenchmark bench;
  std::vector<std::string> names2;  ///< KG2 entity names, row order.
  kg::AlignmentSeeds seeds;
  std::vector<int64_t> dev_sources;  ///< Valid seeds + half the danglings.
  std::vector<int64_t> dev_gold;
  std::vector<int64_t> queries;  ///< Test sources + the other half.
  std::vector<int64_t> gold;     ///< Per KG1 source; kGoldSkip if unscored.
  double dangling_prior = -1.0;
  double generate_s = 0.0;  ///< The generator call alone.
};

// The preset's own pair (its generator seed is fixed); the workload seed
// draws the train/valid/test split and which danglings calibrate. With
// ~40 training pairs, different generated worlds alone moved hits1 and
// decision_f1 by a fifth between seeds.
AlignData Generate(uint64_t seed) {
  datagen::DatasetSpec spec = datagen::AdversarialPreset(kDanglingRate);
  const double keep = 1.0 - spec.config.dangling_frac_kg1 -
                      spec.config.dangling_frac_kg2;
  const datagen::GeneratorConfig config = datagen::ScaledConfig(
      spec.config, static_cast<double>(kMatchedPairs) /
                       (static_cast<double>(spec.config.num_matched) * keep));
  AlignData d;
  {
    Stopwatch watch(&d.generate_s);
    d.bench = datagen::BenchmarkGenerator().Generate(config);
  }
  for (int64_t j = 0; j < d.bench.kg2.num_entities(); ++j) {
    d.names2.push_back(d.bench.kg2.entity_name(static_cast<kg::EntityId>(j)));
  }
  d.seeds = kg::AlignmentSeeds::Split(d.bench.ground_truth, seed);

  std::vector<kg::EntityId> dangling = d.bench.dangling_kg1;
  Rng rng(seed);
  rng.Shuffle(&dangling);
  std::vector<int64_t> eval_dangling;
  for (size_t i = 0; i < dangling.size(); ++i) {
    if (i % 2 == 0) {
      d.dev_sources.push_back(dangling[i]);
      d.dev_gold.push_back(eval::kGoldDangling);
    } else {
      eval_dangling.push_back(dangling[i]);
    }
  }
  for (const auto& [a, b] : d.seeds.valid) {
    d.dev_sources.push_back(a);
    d.dev_gold.push_back(b);
  }
  d.gold.assign(static_cast<size_t>(d.bench.kg1.num_entities()),
                eval::kGoldSkip);
  for (const auto& [a, b] : d.seeds.test) {
    d.gold[static_cast<size_t>(a)] = b;
    d.queries.push_back(a);
  }
  for (int64_t e : eval_dangling) {
    d.gold[static_cast<size_t>(e)] = eval::kGoldDangling;
    d.queries.push_back(e);
  }
  // The dev split is dangling-heavy; declare the scored traffic's mix.
  if (!eval_dangling.empty()) {
    d.dangling_prior =
        static_cast<double>(eval_dangling.size()) /
        static_cast<double>(d.seeds.test.size() + eval_dangling.size());
  }
  return d;
}

Tensor CosineScores(Tensor e1, Tensor e2) {
  tmath::L2NormalizeRowsInPlace(&e1);
  tmath::L2NormalizeRowsInPlace(&e2);
  return tmath::MatmulTransposeB(e1, e2);
}

struct Decided {
  eval::AbstainThreshold rule;
  double f1 = 0.0;
  double calibrate_s = 0.0;
};

// Calibrates the no-match rule on the dev rows (as bench_adversarial
// does) and scores the re-thresholded decisions on the evaluation gold.
Decided Calibrate(const Tensor& scores, std::vector<int64_t> decisions,
                  const AlignData& d) {
  obs::TraceSpan span("eval/calibrate");
  Decided out;
  {
    Stopwatch watch(&out.calibrate_s);
    Tensor dev({static_cast<int64_t>(d.dev_sources.size()), scores.dim(1)});
    for (size_t i = 0; i < d.dev_sources.size(); ++i) {
      dev.SetRow(static_cast<int64_t>(i), scores.Row(d.dev_sources[i]));
    }
    eval::CalibrationOptions options;
    options.dangling_prior = d.dangling_prior;
    out.rule = eval::CalibrateAbstainThreshold(dev, d.dev_gold, options);
    eval::ApplyAbstainThreshold(scores, out.rule, &decisions);
    out.f1 = eval::EvaluateDecisions(decisions, d.gold).f1;
  }
  return out;
}

struct Served {
  std::unique_ptr<serve::AlignmentServer> server;
  std::vector<serve::AlignResult> answers;  ///< One per AlignData::queries.
  std::vector<Tensor> query_rows;
  double build_s = 0.0, swap_s = 0.0;  ///< Store build and swap.
};

// Publishes the KG2 table (store build, then a swap that indexes it) and
// collects one served answer per evaluation source.
Served PublishAndServe(const Tensor& ent1, const Tensor& ent2,
                       const AlignData& d, const eval::AbstainThreshold& rule) {
  Served s;
  serve::ServerOptions options;
  options.abstain = rule;
  s.server = std::make_unique<serve::AlignmentServer>(options);
  auto store = [&] {
    obs::TraceSpan span("store/build");
    Stopwatch watch(&s.build_s);
    return core::EmbeddingStore::Create(d.names2, ent2);
  }();
  SDEA_CHECK(store.ok());
  {
    obs::TraceSpan span("serve/swap");
    Stopwatch watch(&s.swap_s);
    s.server->SwapSnapshot(std::move(store).value());
  }
  obs::TraceSpan span("serve/answer");
  std::vector<std::future<serve::AlignResult>> futures;
  for (int64_t source : d.queries) {
    s.query_rows.push_back(ent1.Row(source));
    futures.push_back(s.server->AlignEmbeddingAsync(s.query_rows.back(), kTopK));
  }
  for (auto& f : futures) s.answers.push_back(f.get());
  return s;
}

struct Checked {
  int64_t failed = 0;
  double recall10 = 0.0;
  double query_ms = 0.0;  ///< Median direct one-thread store query.
};

// Gate: every served answer equals the published store's direct answer
// under the same abstain rule. Also times the direct queries and scores
// the indexed store's top-10 against an exact scan of the same table.
Checked CheckServed(const Served& s, const Tensor& ent2, const AlignData& d,
                    const eval::AbstainThreshold& rule, Report* report) {
  const auto snapshot = s.server->snapshot();
  const auto exact = core::EmbeddingStore::Create(d.names2, ent2);
  report->Gate(exact.ok(), "align_batch: exact reference store");
  Checked out;
  if (!exact.ok()) return out;
  std::vector<double> query_ms;
  int64_t mismatched = 0;
  double recall = 0.0;
  for (size_t i = 0; i < s.answers.size(); ++i) {
    const double t0 = NowSeconds();
    const auto direct =
        snapshot->store.NearestNeighbors(s.query_rows[i], kTopK);
    query_ms.push_back((NowSeconds() - t0) * 1e3);
    recall += Recall(exact->NearestNeighbors(s.query_rows[i], kTopK), direct);
    if (!s.answers[i].ok()) {
      ++out.failed;
      continue;
    }
    if (!SameAnswer(*s.answers[i], ServedForm(direct, rule))) ++mismatched;
  }
  report->Gate(mismatched == 0, "align_batch: " + std::to_string(mismatched) +
                                    " served answers differ from the store");
  out.recall10 = recall / static_cast<double>(s.answers.size());
  out.query_ms = Median(query_ms);
  return out;
}

struct PassResult {
  double seconds = 0.0;
  double cpu_s = 0.0;
  double hits1 = 0.0;
  double f1 = 0.0;
  double calibrate_s = 0.0;
  Checked checked;
  Served served;  ///< The published alignment and its answers.
};

// The product path: AlignmentPipeline::Run, dev calibration, publish and
// serve. Its wall time is one align_s sample.
PassResult FacadePass(const AlignData& d, Report* report) {
  PassResult p;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  core::AlignmentPipeline pipeline;
  auto result = pipeline.Run(d.bench.kg1, d.bench.kg2, d.seeds, AlignConfig(),
                             d.bench.pretrain_corpus);
  if (!result.ok()) {
    report->Fail("align_batch: pipeline failed: " +
                 result.status().ToString());
    return p;
  }
  const Tensor scores = CosineScores(pipeline.model().embeddings1(),
                                     pipeline.model().embeddings2());
  const Decided decided = Calibrate(scores, result->decisions, d);
  p.served = PublishAndServe(pipeline.model().embeddings1(),
                             pipeline.model().embeddings2(), d, decided.rule);
  p.seconds = NowSeconds() - t0;
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  p.hits1 = result->test_metrics.hits_at_1;
  p.f1 = decided.f1;
  p.calibrate_s = decided.calibrate_s;
  p.checked = CheckServed(p.served, pipeline.model().embeddings2(), d,
                          decided.rule, report);
  return p;
}

bool SameQuality(const PassResult& a, const PassResult& b) {
  return std::memcmp(&a.hits1, &b.hits1, sizeof(double)) == 0 &&
         std::memcmp(&a.f1, &b.f1, sizeof(double)) == 0 &&
         std::memcmp(&a.checked.recall10, &b.checked.recall10,
                     sizeof(double)) == 0;
}

// Open-loop reads of a published alignment: the evaluation queries in
// turn at kReadQps, each timed from its due time.
std::vector<RequestRecord> ReadPhase(const Served& s) {
  s.server->ResetStats();
  return RunOpenLoop(kReadQps, kReadRequests, [&s](int64_t i) {
    return s.server->AlignEmbeddingAsync(
        s.query_rows[static_cast<size_t>(i) % s.query_rows.size()], kTopK);
  });
}

}  // namespace

void RunAlignBatch(const RunOptions& options, Report* report) {
  obs::SetEnabled(false);
  std::vector<double> setup_s, generate_s;
  AlignData data;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = NowSeconds();
    data = Generate(options.seed);
    setup_s.push_back(NowSeconds() - t0);
    generate_s.push_back(data.generate_s);
  }

  // Timed phase: whole facade passes until the run's time is used, at
  // least kMinTimedRepeats; align_s is their median. Every pass must
  // reproduce the first one's quality bit for bit.
  std::vector<double> align_s;
  std::vector<PassResult> passes;
  int64_t served = 0, served_failed = 0;
  const double timed_start = NowSeconds();
  // A traced run makes two untraced passes: the second, warm one is the
  // reference for the tracing overhead.
  const int repeats = options.trace ? 2 : kMinTimedRepeats;
  while (static_cast<int>(passes.size()) < repeats ||
         (!options.trace && NowSeconds() - timed_start < options.seconds)) {
    passes.push_back(FacadePass(data, report));
    if (!report->correct()) return;
    // Only the last pass's server is read again; stop the others.
    if (passes.size() > 1) passes[passes.size() - 2].served.server.reset();
    align_s.push_back(passes.back().seconds);
    served += static_cast<int64_t>(passes.back().served.answers.size());
    served_failed += passes.back().checked.failed;
    report->Gate(SameQuality(passes.front(), passes.back()),
                 "align_batch: quality differs between passes");
  }
  report->Phase("pipeline_passes", static_cast<int64_t>(passes.size()), 0);
  report->Phase("served_queries", served, served_failed);
  report->Gate(served_failed == 0, "align_batch: served queries failed");
  const PassResult& facade = passes.front();

  if (!options.trace) {
    const std::vector<RequestRecord> reads = ReadPhase(passes.back().served);
    report->Phase("reads", static_cast<int64_t>(reads.size()),
                  CountFailed(reads));
    report->Gate(CountFailed(reads) == 0, "align_batch: reads failed");
    report->EndToEnd("setup_s", Median(setup_s), "s");
    report->EndToEnd("align_s", Median(align_s), "s");
    report->EndToEnd("hits1", facade.hits1, "%");
    report->EndToEnd("decision_f1", facade.f1, "ratio");
    report->EndToEnd("recall10", facade.checked.recall10, "ratio");
    report->EndToEnd("p50_ms", Median(LatenciesMs(reads)), "ms");
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // The facade path once more with spans on, then reads of what it
  // published: against the warm untraced pass before it, the same code's
  // time is the tracing overhead.
  const PassResult& untraced = passes.back();
  obs::TraceBuffer::Default()->Clear();
  obs::SetEnabled(true);
  const PassResult traced = FacadePass(data, report);
  const int64_t reads_begin = NowUs();
  const std::vector<RequestRecord> reads =
      report->correct() ? ReadPhase(traced.served)
                        : std::vector<RequestRecord>{};
  obs::SetEnabled(false);
  if (!report->correct()) return;
  report->Phase("traced_served_queries",
                static_cast<int64_t>(traced.served.answers.size()),
                traced.checked.failed);
  report->Phase("traced_reads", static_cast<int64_t>(reads.size()),
                CountFailed(reads));
  report->Gate(traced.checked.failed == 0 && CountFailed(reads) == 0,
               "align_batch: requests failed in the traced pass");
  report->Gate(SameQuality(traced, facade),
               "align_batch: traced quality differs from the untraced pass");
  const serve::StatsSnapshot stats = traced.served.server->stats();
  const std::vector<obs::TraceEvent> events =
      obs::TraceBuffer::Default()->Events();
  const std::vector<double> latency = LatenciesMs(reads);
  report->Gate(SamplesBeyond(static_cast<int64_t>(latency.size()), 0.99) >=
                   kMinSamplesBeyond,
               "align_batch: too few reads for p99");

  report->Layer("datagen.generate_s", Median(generate_s), "s");
  report->Layer("store.build_ms", traced.served.build_s * 1e3, "ms");
  report->Layer("store.query_ms", traced.checked.query_ms, "ms");
  report->Layer("eval.calibrate_ms", traced.calibrate_s * 1e3, "ms");
  report->Layer("serve.swap_ms", traced.served.swap_s * 1e3, "ms");
  report->Layer("serve.batch_ms",
                Mean(SpanDurationsMs(events, "serve/batch", reads_begin)),
                "ms");
  report->Layer("serve.search_ms",
                Mean(SpanDurationsMs(events, "serve/search", reads_begin)),
                "ms");
  report->Layer("serve.wait_ms", MedianWaitMs(reads, events), "ms");
  report->Layer("serve.mean_batch", stats.mean_batch_size(), "count");
  report->Layer("serve.no_match_rate",
                static_cast<double>(stats.no_match_answers) /
                    static_cast<double>(std::max<uint64_t>(1, stats.queries)),
                "ratio");
  report->Layer("load.sent", static_cast<double>(reads.size()), "count");
  report->Layer("load.lag_p99_ms", Percentile(LagsMs(reads), 0.99), "ms");
  report->Layer("load.p99_ms", Percentile(latency, 0.99), "ms");
  report->Layer("proc.cpu_s", untraced.cpu_s, "s");
  report->Layer("proc.cpu_util", untraced.cpu_s / untraced.seconds, "ratio");
  ReportTrace(events, (traced.seconds / untraced.seconds - 1.0) * 100.0,
              report);
}

}  // namespace perfbench
