// serve_quantized: open-loop traffic from one load thread against a
// memory-mapped int8 SDEASTOR1 snapshot with the calibrated abstain rule
// on. No training runs: the ADC scan and exact rerank, TopK, the batcher,
// the text cache and the normalizer do nearly all the work.
//
// Traffic mixes embedding queries, perturbed text queries (Zipf-repeated
// over more distinct texts than the server's 4096-entry cache holds) and
// dangling queries with no counterpart. Latency is taken at a fixed
// reference rate well below saturation.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "core/embedding_store.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "eval/abstention.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "stats.h"
#include "store/quantized_store.h"
#include "text/normalizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sdea;

constexpr int64_t kDim = 64;
// World entities before withholding; KG2 (the served table) keeps ~90%,
// about 18k rows, whose 1.2 MB of int8 codes fit in one core's 2 MiB L2.
// At 36k rows (2.3 MB) the median latency of one seed moved by a third
// from run to run on a shared 4-vCPU host; at 18k rows it moved 5%.
constexpr int64_t kWorldEntities = 20000;
constexpr double kDanglingRate = 0.2;
constexpr int kSetupRepeats = 5;
constexpr int64_t kTopK = 10;
constexpr int64_t kQualityPerKind = 200;  // Text and embedding queries.
constexpr int64_t kQualityDangling = 100;
constexpr int64_t kDevMatchable = 150;
constexpr int64_t kDevDangling = 50;
// Distinct perturbed texts: four times the cache, Zipf-repeated. At the
// text volume of a 10 s run, s = 1.0 puts the measured cache hit rate near
// one half, so the hit path and the miss path (normalize, encode, insert)
// each take about half the text requests.
constexpr int64_t kDistinctTexts = 16384;
constexpr double kZipfS = 1.0;
// Traffic shares. Dangling requests come at the world's dangling rate
// (the share of world entities withheld from KG2), as exact embeddings of
// withheld sources, so the abstain rule is tested apart from text noise.
// Matchable requests split evenly between the text and the embedding
// path: both pay the same search, and a missed text adds about 1% to
// encode it, so the split only sets how many requests cross the
// normalizer and the cache. The quality list has the same 40/40/20 mix.
constexpr double kDanglingShare = kDanglingRate;
constexpr double kTextShare = (1.0 - kDanglingShare) / 2.0;
constexpr double kEmbeddingShare = kTextShare;
constexpr double kReferenceQps = 100.0;
// At least this many requests at the reference rate: p99 with fifteen
// samples beyond it.
constexpr int64_t kReferenceRequests = 1500;
constexpr double kWarmupSeconds = 1.0;

// A deterministic text encoder standing in for the trained attribute
// encoder: the sum of fixed random rows, one per hashed character
// trigram. Row i depends only on texts[i] (the BatchEncoderFn contract).
class TrigramEncoder {
 public:
  static constexpr int64_t kBuckets = 4096;

  TrigramEncoder() {
    Rng rng(23);
    table_ = Tensor::RandomNormal({kBuckets, kDim}, 1.0f, &rng);
  }

  Tensor operator()(const std::vector<std::string>& texts) const {
    Tensor out({static_cast<int64_t>(texts.size()), kDim}, 0.0f);
    for (size_t i = 0; i < texts.size(); ++i) {
      const std::string t = " " + texts[i] + " ";
      float* row = out.data() + static_cast<int64_t>(i) * kDim;
      for (size_t j = 0; j + 2 < t.size(); ++j) {
        uint64_t h = 1469598103934665603ull;
        for (size_t b = 0; b < 3; ++b) {
          h ^= static_cast<unsigned char>(t[j + b]);
          h *= 1099511628211ull;
        }
        const float* w = table_.data() + static_cast<int64_t>(h % kBuckets) * kDim;
        for (int64_t d = 0; d < kDim; ++d) row[d] += w[d];
      }
    }
    return out;
  }

 private:
  Tensor table_;
};

// Entity text: the name and its first two attribute values.
std::vector<std::string> EntityTexts(const kg::KnowledgeGraph& g) {
  std::vector<std::string> texts(static_cast<size_t>(g.num_entities()));
  std::vector<int> values(texts.size(), 0);
  for (size_t e = 0; e < texts.size(); ++e) {
    texts[e] = g.entity_name(static_cast<kg::EntityId>(e));
  }
  g.Snapshot().ForEachAttribute(
      [&](int64_t, kg::EntityId e, kg::AttributeId, const std::string& v) {
        const auto i = static_cast<size_t>(e);
        if (values[i]++ < 2) texts[i] += " " + v;
      });
  return texts;
}

// Two to four seeded character edits (drop, swap or replace).
std::string Perturb(std::string text, Rng* rng) {
  const int edits = 2 + static_cast<int>(rng->UniformInt(3));
  for (int k = 0; k < edits && text.size() > 3; ++k) {
    const size_t at = 1 + rng->UniformInt(text.size() - 2);
    switch (rng->UniformInt(3)) {
      case 0:
        text.erase(at, 1);
        break;
      case 1:
        std::swap(text[at], text[at - 1]);
        break;
      default:
        text[at] = static_cast<char>('a' + rng->UniformInt(26));
    }
  }
  return text;
}

struct Query {
  bool is_text = false;
  std::string text;  ///< Raw (unnormalized) text for text queries.
  int64_t source = 0;  ///< KG1 entity the query was made from.
  int64_t gold = 0;    ///< KG2 counterpart or eval::kGoldDangling.
};

// Everything setup produces; the server answers from the snapshot on disk.
struct ServeState {
  datagen::GeneratedBenchmark bench;
  Tensor kg1_rows;  ///< Encoded KG1 texts: the embedding queries.
  Tensor table;     ///< Encoded KG2 texts: the served table.
  std::vector<std::string> names;  ///< KG2 entity names, row order.
  std::vector<Query> text_pool;  ///< Distinct perturbed texts, Zipf order.
  std::vector<int64_t> matchable;  ///< KG1 sources with a counterpart.
  std::vector<int64_t> gold;       ///< Per KG1 source.
  std::vector<Query> quality;
  eval::AbstainThreshold rule;
  std::unique_ptr<serve::AlignmentServer> server;
  double generate_s = 0.0;
  /// Time to the served alignment: table encode, snapshot write,
  /// calibration and snapshot load, of which the three parts below.
  double align_s = 0.0;
  double write_s = 0.0, calibrate_s = 0.0, swap_s = 0.0;
};

Query EmbeddingQuery(const ServeState& s, int64_t source) {
  return Query{false, "", source, s.gold[static_cast<size_t>(source)]};
}

Query TextQuery(const ServeState& s, const std::vector<std::string>& texts,
                int64_t source, Rng* rng) {
  return Query{true, Perturb(texts[static_cast<size_t>(source)], rng), source,
               s.gold[static_cast<size_t>(source)]};
}

Tensor QueryRow(const ServeState& s, const TrigramEncoder& encoder,
                const Query& q) {
  if (!q.is_text) return s.kg1_rows.Row(q.source);
  return encoder({text::NormalizeText(q.text)}).Row(0);
}

std::unique_ptr<ServeState> Setup(uint64_t seed, const std::string& dir,
                                  const TrigramEncoder& encoder,
                                  Report* report) {
  auto s = std::make_unique<ServeState>();
  {
    Stopwatch watch(&s->generate_s);
    datagen::DatasetSpec spec = datagen::AdversarialPreset(kDanglingRate);
    spec.config.num_matched = kWorldEntities;
    spec.config.comment_prob = 0.0;
    spec.config.pretrain_sentences = 0;
    spec.config.seed = seed;
    s->bench = datagen::BenchmarkGenerator().Generate(spec.config);
  }
  const std::vector<std::string> texts1 = EntityTexts(s->bench.kg1);
  std::vector<std::string> norm1;
  for (const std::string& t : texts1) norm1.push_back(text::NormalizeText(t));
  s->kg1_rows = encoder(norm1);

  s->gold.assign(norm1.size(), eval::kGoldSkip);
  for (const auto& [a, b] : s->bench.ground_truth) {
    s->gold[static_cast<size_t>(a)] = b;
    s->matchable.push_back(a);
  }
  for (kg::EntityId e : s->bench.dangling_kg1) {
    s->gold[static_cast<size_t>(e)] = eval::kGoldDangling;
  }

  Rng rng(seed ^ 0x5e7e5eedULL);
  for (int64_t i = 0; i < kDistinctTexts; ++i) {
    const int64_t source =
        s->matchable[rng.UniformInt(s->matchable.size())];
    s->text_pool.push_back(TextQuery(*s, texts1, source, &rng));
  }
  const auto& dangling = s->bench.dangling_kg1;
  for (int64_t i = 0; i < kQualityPerKind; ++i) {
    s->quality.push_back(s->text_pool[rng.UniformInt(s->text_pool.size())]);
    s->quality.push_back(EmbeddingQuery(
        *s, s->matchable[rng.UniformInt(s->matchable.size())]));
  }
  for (int64_t i = 0; i < kQualityDangling; ++i) {
    const int64_t source = dangling[rng.UniformInt(dangling.size())];
    s->quality.push_back(i % 2 == 0 ? TextQuery(*s, texts1, source, &rng)
                                    : EmbeddingQuery(*s, source));
  }

  // The served alignment: the KG2 table encoded and written as a
  // quantized snapshot, the abstain rule calibrated, the snapshot opened.
  Stopwatch align(&s->align_s);
  std::vector<std::string> texts2 = EntityTexts(s->bench.kg2);
  for (std::string& t : texts2) t = text::NormalizeText(t);
  s->table = encoder(texts2);
  {
    Stopwatch watch(&s->write_s);
    for (int64_t j = 0; j < s->table.dim(0); ++j) {
      s->names.push_back(
          s->bench.kg2.entity_name(static_cast<kg::EntityId>(j)));
    }
    const Status st = store::QuantizedStore::Write(dir, s->names, s->table);
    report->Gate(st.ok(), "serve_quantized: store write: " + st.ToString());
  }
  {
    // Calibrate on dev queries drawn like the traffic (clean and
    // perturbed matchable sources, plus danglings), scored exactly.
    Stopwatch watch(&s->calibrate_s);
    std::vector<Query> dev;
    for (int64_t i = 0; i < kDevMatchable; ++i) {
      const int64_t source =
          s->matchable[rng.UniformInt(s->matchable.size())];
      dev.push_back(i % 2 == 0 ? TextQuery(*s, texts1, source, &rng)
                               : EmbeddingQuery(*s, source));
    }
    for (int64_t i = 0; i < kDevDangling; ++i) {
      const int64_t source = dangling[rng.UniformInt(dangling.size())];
      dev.push_back(i % 2 == 0 ? TextQuery(*s, texts1, source, &rng)
                               : EmbeddingQuery(*s, source));
    }
    Tensor q({static_cast<int64_t>(dev.size()), kDim});
    std::vector<int64_t> dev_gold;
    for (size_t i = 0; i < dev.size(); ++i) {
      q.SetRow(static_cast<int64_t>(i), QueryRow(*s, encoder, dev[i]));
      dev_gold.push_back(dev[i].gold);
    }
    Tensor t = s->table;
    tmath::L2NormalizeRowsInPlace(&q);
    tmath::L2NormalizeRowsInPlace(&t);
    eval::CalibrationOptions options;
    options.dangling_prior = kDanglingShare;
    s->rule = eval::CalibrateAbstainThreshold(tmath::MatmulTransposeB(q, t),
                                              dev_gold, options);
  }
  serve::ServerOptions options;
  options.abstain = s->rule;
  s->server = std::make_unique<serve::AlignmentServer>(
      options, [&encoder](const std::vector<std::string>& texts) {
        return encoder(texts);
      });
  {
    Stopwatch watch(&s->swap_s);
    const auto version = s->server->LoadQuantizedSnapshot(dir);
    report->Gate(version.ok(), "serve_quantized: snapshot load failed");
  }
  return s;
}

// The seeded request stream every phase draws from, in order.
class Traffic {
 public:
  Traffic(const ServeState& s, uint64_t seed) : s_(s), rng_(seed ^ 0x7aff1cULL) {}

  std::future<serve::AlignResult> Submit() {
    const double u = rng_.Uniform();
    const auto& dangling = s_.bench.dangling_kg1;
    if (u < kTextShare) {
      const Query& q = s_.text_pool[rng_.Zipf(s_.text_pool.size(), kZipfS)];
      return s_.server->AlignTextAsync(q.text, kTopK);
    }
    const int64_t source =
        u < kTextShare + kEmbeddingShare
            ? s_.matchable[rng_.UniformInt(s_.matchable.size())]
            : dangling[rng_.UniformInt(dangling.size())];
    return s_.server->AlignEmbeddingAsync(s_.kg1_rows.Row(source), kTopK);
  }

 private:
  const ServeState& s_;
  Rng rng_;
};

std::vector<RequestRecord> OpenLoop(Traffic* traffic, double qps,
                                    int64_t count) {
  return RunOpenLoop(qps, count,
                     [traffic](int64_t) { return traffic->Submit(); });
}

// Submits the whole quality list at once and returns the answers.
std::vector<serve::AlignResult> QualityPass(const ServeState& s) {
  std::vector<std::future<serve::AlignResult>> futures;
  for (const Query& q : s.quality) {
    futures.push_back(q.is_text
                          ? s.server->AlignTextAsync(q.text, kTopK)
                          : s.server->AlignEmbeddingAsync(
                                s.kg1_rows.Row(q.source), kTopK));
  }
  std::vector<serve::AlignResult> answers;
  for (auto& f : futures) answers.push_back(f.get());
  return answers;
}

struct Quality {
  double hits1 = 0.0, f1 = 0.0, recall10 = 0.0;
  double query_ms = 0.0;  ///< Median direct one-thread store query.
};

// Scores the fixed quality list and gates the served answers: each equals
// the direct QuantizedStore answer under the abstain rule, and both
// passes agree bitwise.
Quality CheckQuality(const ServeState& s, const TrigramEncoder& encoder,
                     const std::vector<serve::AlignResult>& pass_a,
                     const std::vector<serve::AlignResult>& pass_b,
                     Report* report) {
  const store::QuantizedStore& qstore = *s.server->snapshot()->quantized;
  auto exact = core::EmbeddingStore::Create(s.names, s.table);
  Quality out;
  std::vector<double> query_ms;
  std::vector<int64_t> predicted, gold;
  int64_t matchable = 0, hits = 0, mismatched = 0, disagree = 0, failed = 0;
  double recall = 0.0;
  for (size_t i = 0; i < s.quality.size(); ++i) {
    const Query& q = s.quality[i];
    const Tensor row = QueryRow(s, encoder, q);
    const double t0 = NowSeconds();
    const auto direct = qstore.NearestNeighbors(row, kTopK);
    query_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!pass_a[i].ok() || !pass_b[i].ok()) {
      ++failed;
      continue;
    }
    if (!SameAnswer(*pass_a[i], ServedForm(direct, s.rule))) ++mismatched;
    if (!SameAnswer(*pass_a[i], *pass_b[i])) ++disagree;
    const auto& served = *pass_a[i];
    const int64_t top1 = served.empty() ? -1 : served.front().id;
    predicted.push_back(top1);
    gold.push_back(q.gold);
    if (q.gold >= 0) {
      ++matchable;
      hits += top1 == q.gold;
    }
    if (exact.ok()) {
      recall += Recall(exact->NearestNeighbors(row, kTopK), direct);
    }
  }
  const auto n = static_cast<double>(s.quality.size());
  report->Gate(exact.ok(), "serve_quantized: exact reference store");
  report->Gate(failed == 0, "serve_quantized: quality queries failed");
  report->Gate(mismatched == 0,
               "serve_quantized: " + std::to_string(mismatched) +
                   " served answers differ from QuantizedStore");
  report->Gate(disagree == 0, "serve_quantized: " + std::to_string(disagree) +
                                  " answers differ between quality passes");
  out.hits1 = matchable > 0 ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(matchable)
                            : 0.0;
  out.f1 = eval::EvaluateDecisions(predicted, gold).f1;
  out.recall10 = recall / n;
  out.query_ms = Median(query_ms);
  return out;
}

struct PhaseResult {
  std::vector<RequestRecord> records;
  double seconds = 0.0;
  double cpu_s = 0.0;
};

PhaseResult ReferencePhase(Traffic* traffic, int seconds) {
  PhaseResult p;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  p.records = OpenLoop(
      traffic, kReferenceQps,
      std::max(kReferenceRequests,
               static_cast<int64_t>(kReferenceQps * seconds)));
  p.seconds = NowSeconds() - t0;
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  return p;
}

}  // namespace

void RunServeQuantized(const RunOptions& options, Report* report) {
  obs::SetEnabled(false);
  const TrigramEncoder encoder;
  std::vector<double> setup_s, align_s, generate_s, write_ms, calibrate_ms,
      swap_ms;
  std::unique_ptr<ServeState> state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state.reset();  // Frees the previous copy before building the next.
    const std::string dir = options.work_dir + "/store" + std::to_string(r);
    const double t0 = NowSeconds();
    state = Setup(options.seed, dir, encoder, report);
    setup_s.push_back(NowSeconds() - t0 - state->align_s);
    align_s.push_back(state->align_s);
    generate_s.push_back(state->generate_s);
    write_ms.push_back(state->write_s * 1e3);
    calibrate_ms.push_back(state->calibrate_s * 1e3);
    swap_ms.push_back(state->swap_s * 1e3);
    if (!report->correct()) return;
  }
  ServeState& s = *state;

  // Warm-up: the first quality pass and a short open loop page in the
  // snapshot, start the pool and fill the text cache.
  Traffic traffic(s, options.seed);
  const auto pass_a = QualityPass(s);
  OpenLoop(&traffic, kReferenceQps,
           static_cast<int64_t>(kReferenceQps * kWarmupSeconds));
  s.server->ResetStats();

  PhaseResult reference = ReferencePhase(&traffic, options.seconds);
  report->Phase("reference", static_cast<int64_t>(reference.records.size()),
                CountFailed(reference.records));
  report->Gate(CountFailed(reference.records) == 0,
               "serve_quantized: requests failed at the reference rate");

  if (!options.trace) {
    const auto pass_b = QualityPass(s);
    const Quality quality = CheckQuality(s, encoder, pass_a, pass_b, report);
    report->Phase("quality", static_cast<int64_t>(2 * s.quality.size()), 0);
    report->EndToEnd("setup_s", Median(setup_s), "s");
    report->EndToEnd("align_s", Median(align_s), "s");
    report->EndToEnd("hits1", quality.hits1, "%");
    report->EndToEnd("decision_f1", quality.f1, "ratio");
    report->EndToEnd("recall10", quality.recall10, "ratio");
    report->EndToEnd("p50_ms", Median(LatenciesMs(reference.records)), "ms");
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: the same reference schedule again with spans on; the CPU
  // difference between the two passes is the tracing overhead. The tail
  // comes from here too: on a shared host its run-to-run spread is set by
  // host scheduling, so it carries no bound.
  s.server->ResetStats();
  obs::TraceBuffer::Default()->Clear();
  obs::SetEnabled(true);
  PhaseResult traced = ReferencePhase(&traffic, options.seconds);
  obs::SetEnabled(false);
  report->Phase("reference_traced", static_cast<int64_t>(traced.records.size()),
                CountFailed(traced.records));
  report->Gate(CountFailed(traced.records) == 0,
               "serve_quantized: requests failed in the traced pass");
  const serve::StatsSnapshot stats = s.server->stats();
  const std::vector<obs::TraceEvent> events =
      obs::TraceBuffer::Default()->Events();
  const std::vector<double> latency = LatenciesMs(traced.records);
  report->Gate(SamplesBeyond(static_cast<int64_t>(latency.size()), 0.99) >=
                   kMinSamplesBeyond,
               "serve_quantized: too few samples for p99");
  const auto pass_b = QualityPass(s);
  const Quality quality = CheckQuality(s, encoder, pass_a, pass_b, report);
  report->Phase("quality", static_cast<int64_t>(2 * s.quality.size()), 0);

  report->Layer("datagen.generate_s", Median(generate_s), "s");
  report->Layer("store.build_ms", Median(write_ms), "ms");
  report->Layer("store.query_ms", quality.query_ms, "ms");
  report->Layer("eval.calibrate_ms", Median(calibrate_ms), "ms");
  report->Layer("serve.swap_ms", Median(swap_ms), "ms");
  report->Layer("serve.batch_ms", Mean(SpanDurationsMs(events, "serve/batch")),
                "ms");
  report->Layer("serve.search_ms",
                Mean(SpanDurationsMs(events, "serve/search")), "ms");
  report->Layer("serve.wait_ms", MedianWaitMs(traced.records, events), "ms");
  report->Layer("serve.mean_batch", stats.mean_batch_size(), "count");
  report->Layer("serve.no_match_rate",
                static_cast<double>(stats.no_match_answers) /
                    static_cast<double>(std::max<uint64_t>(1, stats.queries)),
                "ratio");
  report->Layer("load.sent", static_cast<double>(traced.records.size()),
                "count");
  report->Layer("load.lag_p99_ms", Percentile(LagsMs(traced.records), 0.99),
                "ms");
  report->Layer("load.p99_ms", Percentile(latency, 0.99), "ms");
  report->Layer("proc.cpu_s", traced.cpu_s, "s");
  report->Layer("proc.cpu_util", traced.cpu_s / traced.seconds, "ratio");
  ReportTrace(events, (traced.cpu_s / reference.cpu_s - 1.0) * 100.0, report);
}

}  // namespace perfbench
