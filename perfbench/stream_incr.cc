// stream_incr: the d_stream shape, scaled up and streamed in many small
// increments while an open-loop reader queries the served alignment.
// Each increment is durably logged (UpdateLog::Append), applied to both
// graphs, re-aligned incrementally (warm-started re-embed of the affected
// rows, not full epochs) and republished: a new fp32 EmbeddingStore
// indexed and swapped in about every 100 ms. Writes run beside reads, and
// both share the one global thread pool. Reads answer under an abstain
// rule calibrated on the base state; the world's unmatched KG1 entities
// are the dangling sources.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "core/embedding_store.h"
#include "datagen/streaming.h"
#include "eval/abstention.h"
#include "eval/metrics.h"
#include "incr/aligner.h"
#include "incr/update_log.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sdea;
using Pairs = std::vector<std::pair<kg::EntityId, kg::EntityId>>;

constexpr int64_t kMatchedPairs = 1500;
// Over a hundred increments: align_s sums their refreshes, so one slow
// refresh moves it by under 1%.
constexpr int64_t kIncrements = 120;
constexpr int kSetupRepeats = 5;
constexpr double kReadQps = 400.0;
constexpr int64_t kReadRows = 256;
constexpr int64_t kTopK = 10;

// bench_incr's d_stream aligner settings.
incr::IncrementalAlignerOptions StreamOptions() {
  incr::IncrementalAlignerOptions opts;
  opts.dim = 48;
  opts.base_epochs = 150;
  opts.incr_epochs = 15;
  opts.affected_frac_cap = 0.10;
  opts.pull_lr = 0.01f;
  opts.k_hops = 2;
  return opts;
}

// One independent copy of the streamed world: graphs at the base state,
// the fitted aligner, the calibrated abstain rule and (for passes with
// readers) a serving front end.
struct StreamState {
  datagen::StreamingBenchmark stream;
  Pairs eval_pairs;
  std::vector<int64_t> eval_dangling;  ///< Scored KG1 sources with no match.
  eval::AbstainThreshold rule;
  std::unique_ptr<incr::IncrementalAligner> aligner;
  std::unique_ptr<serve::AlignmentServer> server;
  std::vector<Tensor> reads;  ///< Fixed read queries: base KG1 rows.
  double generate_s = 0.0, calibrate_s = 0.0;
  std::vector<double> build_ms, swap_ms;  ///< Per publish.
};

std::vector<std::string> Kg2Names(const StreamState& s) {
  std::vector<std::string> names;
  for (int64_t j = 0; j < s.stream.kg2.num_entities(); ++j) {
    names.push_back(s.stream.kg2.entity_name(static_cast<kg::EntityId>(j)));
  }
  return names;
}

// Store build plus SwapSnapshot, which builds the IVF index.
void Publish(StreamState* s) {
  double build_s = 0.0, swap_s = 0.0;
  auto store = [&] {
    obs::TraceSpan span("store/build");
    Stopwatch watch(&build_s);
    return core::EmbeddingStore::Create(Kg2Names(*s),
                                        s->aligner->embeddings2());
  }();
  SDEA_CHECK(store.ok());
  {
    obs::TraceSpan span("serve/swap");
    Stopwatch watch(&swap_s);
    s->server->SwapSnapshot(std::move(store).value());
  }
  s->build_ms.push_back(build_s * 1e3);
  s->swap_ms.push_back(swap_s * 1e3);
}

// Cosine scores of the given KG1 sources against every KG2 entity.
Tensor SourceScores(const StreamState& s, const std::vector<int64_t>& sources) {
  const Tensor& emb1 = s.aligner->embeddings1();
  Tensor rows({static_cast<int64_t>(sources.size()), emb1.dim(1)});
  for (size_t i = 0; i < sources.size(); ++i) {
    rows.SetRow(static_cast<int64_t>(i), emb1.Row(sources[i]));
  }
  Tensor table = s.aligner->embeddings2();
  tmath::L2NormalizeRowsInPlace(&rows);
  tmath::L2NormalizeRowsInPlace(&table);
  return tmath::MatmulTransposeB(rows, table);
}

// Accept/abstain F1 of the current alignment on the scored sources:
// each source's best match, withheld when the abstain rule rejects it.
double DecisionF1(const StreamState& s) {
  std::vector<int64_t> sources, gold;
  for (const auto& [a, b] : s.eval_pairs) {
    sources.push_back(a);
    gold.push_back(b);
  }
  for (int64_t e : s.eval_dangling) {
    sources.push_back(e);
    gold.push_back(eval::kGoldDangling);
  }
  const Tensor scores = SourceScores(s, sources);
  const int64_t n2 = scores.dim(1);
  std::vector<int64_t> decisions;
  for (int64_t i = 0; i < scores.dim(0); ++i) {
    const float* row = scores.data() + i * n2;
    decisions.push_back(std::max_element(row, row + n2) - row);
  }
  eval::ApplyAbstainThreshold(scores, s.rule, &decisions);
  return eval::EvaluateDecisions(decisions, gold).f1;
}

std::unique_ptr<StreamState> Setup(uint64_t seed, bool serve, Report* report) {
  auto s = std::make_unique<StreamState>();
  {
    Stopwatch watch(&s->generate_s);
    // The preset's world; the seed draws which pairs stream in and which
    // attribute edits ride along. Different generated worlds alone moved
    // the final hits1 by a seventh between seeds.
    datagen::StreamingConfig config = datagen::StreamingPreset().config;
    config.base.num_matched = kMatchedPairs;
    config.num_increments = kIncrements;
    config.stream_seed = seed;
    s->stream = datagen::GenerateStreaming(config);
  }
  // bench_incr's split: the first 30% of the base truth trains; of the
  // rest, the next 10% calibrates the abstain rule and the others (plus
  // every streamed pair) evaluate.
  Pairs seeds, dev;
  const size_t n = s->stream.base_truth.size();
  for (size_t i = 0; i < n; ++i) {
    (i < n * 3 / 10 ? seeds : i < n * 4 / 10 ? dev : s->eval_pairs)
        .push_back(s->stream.base_truth[i]);
  }
  // Base KG1 entities in no truth pair, base or streamed, are the
  // generator's unmatched extras: half calibrate, half are scored.
  std::unordered_set<std::string> streamed;
  for (const auto& batch : s->stream.truth_names) {
    for (const auto& names : batch) streamed.insert(names.first);
  }
  std::vector<bool> matched(
      static_cast<size_t>(s->stream.kg1.num_entities()), false);
  for (const auto& pair : s->stream.base_truth) {
    matched[static_cast<size_t>(pair.first)] = true;
  }
  std::vector<int64_t> dangling;
  for (size_t e = 0; e < matched.size(); ++e) {
    if (!matched[e] && streamed.count(s->stream.kg1.entity_name(
                           static_cast<kg::EntityId>(e))) == 0) {
      dangling.push_back(static_cast<int64_t>(e));
    }
  }
  Rng rng(seed);
  rng.Shuffle(&dangling);
  std::vector<int64_t> dev_sources, dev_gold;
  for (const auto& [a, b] : dev) {
    dev_sources.push_back(a);
    dev_gold.push_back(b);
  }
  for (size_t i = 0; i < dangling.size(); ++i) {
    if (i % 2 == 0) {
      dev_sources.push_back(dangling[i]);
      dev_gold.push_back(eval::kGoldDangling);
    } else {
      s->eval_dangling.push_back(dangling[i]);
    }
  }
  s->aligner = std::make_unique<incr::IncrementalAligner>(
      &s->stream.kg1, &s->stream.kg2, StreamOptions());
  const Status st = s->aligner->FitBase(seeds);
  report->Gate(st.ok(), "stream_incr: FitBase: " + st.ToString());
  {
    // The dev split is dangling-heavy; declare the scored mix at the end
    // of the stream, when every streamed pair has arrived.
    Stopwatch watch(&s->calibrate_s);
    size_t arriving = 0;
    for (const auto& names : s->stream.truth_names) arriving += names.size();
    eval::CalibrationOptions options;
    options.dangling_prior =
        static_cast<double>(s->eval_dangling.size()) /
        static_cast<double>(s->eval_pairs.size() + arriving +
                            s->eval_dangling.size());
    s->rule = eval::CalibrateAbstainThreshold(SourceScores(*s, dev_sources),
                                              dev_gold, options);
  }
  const Tensor& emb1 = s->aligner->embeddings1();
  for (int64_t i = 0; i < kReadRows; ++i) {
    const auto& pair = s->eval_pairs[static_cast<size_t>(i) %
                                     s->eval_pairs.size()];
    s->reads.push_back(emb1.Row(pair.first));
  }
  if (serve) {
    serve::ServerOptions options;
    options.abstain = s->rule;
    s->server = std::make_unique<serve::AlignmentServer>(options);
    Publish(s.get());
  }
  return s;
}

struct StreamResult {
  double hits1 = 0.0, f1 = 0.0, recall10 = 0.0;
  double query_ms = 0.0;  ///< Median direct one-thread store query.
  std::vector<double> refresh_ms;
  std::vector<RequestRecord> reads;
  double seconds = 0.0, cpu_s = 0.0;
};

// Streams every increment through the log, both graphs, the aligner and a
// republish, while a load thread reads at kReadQps. A refresh runs from
// the start of Append to the return of SwapSnapshot.
StreamResult StreamWithReader(StreamState* s, const std::string& log_path,
                              Report* report) {
  StreamResult r;
  auto log = incr::UpdateLog::Open(log_path);
  report->Gate(log.ok(), "stream_incr: log open");
  if (!log.ok()) return r;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    r.reads = RunOpenLoop(
        kReadQps, -1,
        [s](int64_t i) {
          return s->server->AlignEmbeddingAsync(
              s->reads[static_cast<size_t>(i % kReadRows)], kTopK);
        },
        &stop);
  });
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  for (size_t i = 0; i < s->stream.increments.size(); ++i) {
    const incr::UpdateBatch& batch = s->stream.increments[i];
    const double start = NowSeconds();
    {
      obs::TraceSpan span("incr/log_append");
      const Status st = log->Append(batch);
      report->Gate(st.ok(), "stream_incr: log append: " + st.ToString());
    }
    {
      obs::TraceSpan span("incr/apply");
      incr::ApplyUpdate(batch.kg1, &s->stream.kg1);
      incr::ApplyUpdate(batch.kg2, &s->stream.kg2);
    }
    {
      obs::TraceSpan span("incr/process");
      report->Gate(s->aligner->ProcessIncrement().ok(),
                   "stream_incr: ProcessIncrement failed");
    }
    Publish(s);
    r.refresh_ms.push_back((NowSeconds() - start) * 1e3);
    for (const auto& pair : datagen::ResolveNamePairs(
             s->stream.kg1, s->stream.kg2, s->stream.truth_names[i])) {
      s->eval_pairs.push_back(pair);
    }
  }
  r.seconds = NowSeconds() - t0;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  stop.store(true, std::memory_order_release);
  reader.join();
  r.hits1 = s->aligner->Evaluate(s->eval_pairs).hits_at_1;
  r.f1 = DecisionF1(*s);

  // Gate: the final snapshot answers exactly as its store does directly.
  // The same reads time the direct store and score its indexed top-10
  // against an exact scan of the same table.
  const auto snapshot = s->server->snapshot();
  const auto exact =
      core::EmbeddingStore::Create(Kg2Names(*s), s->aligner->embeddings2());
  report->Gate(exact.ok(), "stream_incr: exact reference store");
  if (!exact.ok()) return r;
  std::vector<double> query_ms;
  int64_t mismatched = 0;
  double recall = 0.0;
  for (const Tensor& q : s->reads) {
    const double t0 = NowSeconds();
    const auto direct = snapshot->store.NearestNeighbors(q, kTopK);
    query_ms.push_back((NowSeconds() - t0) * 1e3);
    recall += Recall(exact->NearestNeighbors(q, kTopK), direct);
    const auto served = s->server->AlignEmbedding(q, kTopK);
    if (!served.ok() || !SameAnswer(*served, ServedForm(direct, s->rule))) {
      ++mismatched;
    }
  }
  report->Gate(mismatched == 0, "stream_incr: " + std::to_string(mismatched) +
                                    " served answers differ from the store");
  report->Phase("final_snapshot_check", kReadRows, mismatched);
  r.recall10 = recall / static_cast<double>(s->reads.size());
  r.query_ms = Median(query_ms);
  return r;
}

// Replays the logged stream, decoded from disk, into a fresh copy with
// no reader, log writes or publishes; returns the final hits1 and
// decision F1.
std::pair<double, double> Replay(uint64_t seed, const std::string& log_path,
                                 Report* report) {
  auto s = Setup(seed, /*serve=*/false, report);
  auto log = incr::UpdateLog::Open(log_path);
  report->Gate(log.ok() && log->size() == kIncrements,
               "stream_incr: replayed log is incomplete");
  if (!log.ok()) return {-1.0, -1.0};
  for (size_t i = 0; i < log->batches().size(); ++i) {
    incr::ApplyUpdate(log->batches()[i].kg1, &s->stream.kg1);
    incr::ApplyUpdate(log->batches()[i].kg2, &s->stream.kg2);
    report->Gate(s->aligner->ProcessIncrement().ok(),
                 "stream_incr: replay ProcessIncrement failed");
    for (const auto& pair : datagen::ResolveNamePairs(
             s->stream.kg1, s->stream.kg2, s->stream.truth_names[i])) {
      s->eval_pairs.push_back(pair);
    }
  }
  return {s->aligner->Evaluate(s->eval_pairs).hits_at_1, DecisionF1(*s)};
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

}  // namespace

void RunStreamIncr(const RunOptions& options, Report* report) {
  obs::SetEnabled(false);
  std::vector<double> setup_s, generate_s, calibrate_ms;
  std::unique_ptr<StreamState> state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state.reset();
    const double t0 = NowSeconds();
    state = Setup(options.seed, /*serve=*/true, report);
    setup_s.push_back(NowSeconds() - t0);
    generate_s.push_back(state->generate_s);
    calibrate_ms.push_back(state->calibrate_s * 1e3);
    if (!report->correct()) return;
  }

  const std::string log_path = options.work_dir + "/stream.log";
  const StreamResult stream = StreamWithReader(state.get(), log_path, report);
  state.reset();
  report->Phase("increments", static_cast<int64_t>(stream.refresh_ms.size()),
                0);
  report->Phase("stream_reads", static_cast<int64_t>(stream.reads.size()),
                CountFailed(stream.reads));
  report->Gate(CountFailed(stream.reads) == 0,
               "stream_incr: reads failed during the stream");
  const auto [replay_hits1, replay_f1] =
      Replay(options.seed, log_path, report);
  report->Gate(SameBits(stream.hits1, replay_hits1) &&
                   SameBits(stream.f1, replay_f1),
               "stream_incr: quality differs from a replay with no reader");

  if (!options.trace) {
    report->EndToEnd("setup_s", Median(setup_s), "s");
    report->EndToEnd("align_s", Sum(stream.refresh_ms) / 1e3, "s");
    report->EndToEnd("hits1", stream.hits1, "%");
    report->EndToEnd("decision_f1", stream.f1, "ratio");
    report->EndToEnd("recall10", stream.recall10, "ratio");
    report->EndToEnd("p50_ms", Median(LatenciesMs(stream.reads)), "ms");
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: the same stream again on a fresh copy with spans on; the
  // summed refresh time against the untraced pass is the overhead.
  auto traced_state = Setup(options.seed, /*serve=*/true, report);
  obs::TraceBuffer::Default()->Clear();
  obs::SetEnabled(true);
  const StreamResult traced = StreamWithReader(
      traced_state.get(), options.work_dir + "/stream-traced.log", report);
  obs::SetEnabled(false);
  const std::vector<obs::TraceEvent> events =
      obs::TraceBuffer::Default()->Events();
  const serve::StatsSnapshot stats = traced_state->server->stats();
  const double build_ms = Median(traced_state->build_ms);
  const double swap_ms = Median(traced_state->swap_ms);
  traced_state.reset();
  report->Phase("traced_stream_reads",
                static_cast<int64_t>(traced.reads.size()),
                CountFailed(traced.reads));
  report->Gate(CountFailed(traced.reads) == 0,
               "stream_incr: reads failed in the traced stream");
  report->Gate(SameBits(stream.hits1, traced.hits1) &&
                   SameBits(stream.f1, traced.f1) &&
                   SameBits(stream.recall10, traced.recall10),
               "stream_incr: traced quality differs from the untraced pass");
  const std::vector<double> latency = LatenciesMs(traced.reads);
  report->Gate(SamplesBeyond(static_cast<int64_t>(latency.size()), 0.99) >=
                   kMinSamplesBeyond,
               "stream_incr: too few reads for p99");

  report->Layer("datagen.generate_s", Median(generate_s), "s");
  report->Layer("store.build_ms", build_ms, "ms");
  report->Layer("store.query_ms", traced.query_ms, "ms");
  report->Layer("eval.calibrate_ms", Median(calibrate_ms), "ms");
  report->Layer("serve.swap_ms", swap_ms, "ms");
  report->Layer("serve.batch_ms", Mean(SpanDurationsMs(events, "serve/batch")),
                "ms");
  report->Layer("serve.search_ms",
                Mean(SpanDurationsMs(events, "serve/search")), "ms");
  report->Layer("serve.wait_ms", MedianWaitMs(traced.reads, events), "ms");
  report->Layer("serve.mean_batch", stats.mean_batch_size(), "count");
  report->Layer("serve.no_match_rate",
                static_cast<double>(stats.no_match_answers) /
                    static_cast<double>(std::max<uint64_t>(1, stats.queries)),
                "ratio");
  report->Layer("load.sent", static_cast<double>(traced.reads.size()), "count");
  report->Layer("load.lag_p99_ms", Percentile(LagsMs(traced.reads), 0.99),
                "ms");
  report->Layer("load.p99_ms", Percentile(latency, 0.99), "ms");
  report->Layer("proc.cpu_s", traced.cpu_s, "s");
  report->Layer("proc.cpu_util", traced.cpu_s / traced.seconds, "ratio");
  ReportTrace(events,
              (Sum(traced.refresh_ms) / Sum(stream.refresh_ms) - 1.0) * 100.0,
              report);
}

}  // namespace perfbench
