#include "serve/stats.h"

#include <cstdio>
#include <vector>

#include "base/check.h"

namespace sdea::serve {
namespace {

// Bucket upper bounds (inclusive); the registry histograms add the final
// unbounded bucket, matching the StatsSnapshot array layout exactly.
const std::vector<double>& BatchBounds() {
  static const std::vector<double> kBounds = {1, 2, 4, 8, 16, 32, 64};
  return kBounds;
}

const std::vector<double>& LatencyBoundsUs() {
  static const std::vector<double> kBounds = {1,    4,    16,    64,   256,
                                              1024, 4096, 16384, 65536};
  return kBounds;
}

void AppendHistogramLine(std::string* out, const char* label,
                         const uint64_t* counts,
                         const std::vector<double>& bounds) {
  out->append(label);
  char buf[64];
  const int num_buckets = static_cast<int>(bounds.size()) + 1;
  for (int b = 0; b < num_buckets; ++b) {
    if (b < num_buckets - 1) {
      std::snprintf(buf, sizeof(buf), " [<=%lld]=%llu",
                    static_cast<long long>(bounds[static_cast<size_t>(b)]),
                    static_cast<unsigned long long>(counts[b]));
    } else {
      std::snprintf(buf, sizeof(buf), " [inf]=%llu",
                    static_cast<unsigned long long>(counts[b]));
    }
    out->append(buf);
  }
  out->append("\n");
}

template <size_t N>
void CopyBuckets(const obs::Histogram& hist, std::array<uint64_t, N>* out) {
  const std::vector<int64_t>& counts = hist.bucket_counts();
  SDEA_CHECK_EQ(counts.size(), N);
  for (size_t b = 0; b < N; ++b) {
    (*out)[b] = static_cast<uint64_t>(counts[b]);
  }
}

}  // namespace

double StatsSnapshot::cache_hit_rate() const {
  const uint64_t lookups = cache_hits + cache_misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(cache_hits) / static_cast<double>(lookups);
}

double StatsSnapshot::mean_batch_size() const {
  if (batches == 0) return 0.0;
  return static_cast<double>(batched_queries) / static_cast<double>(batches);
}

std::string StatsSnapshot::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "serve stats: %llu queries (%llu text, %llu embedding, "
                "%llu failed, %llu no-match) in %llu batches "
                "(mean %.2f/batch)\n",
                static_cast<unsigned long long>(queries),
                static_cast<unsigned long long>(text_queries),
                static_cast<unsigned long long>(embedding_queries),
                static_cast<unsigned long long>(failed_queries),
                static_cast<unsigned long long>(no_match_answers),
                static_cast<unsigned long long>(batches), mean_batch_size());
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "cache: %llu hits / %llu misses (%.1f%% hit rate), "
                "%llu texts encoded; %llu snapshot swaps\n",
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses),
                100.0 * cache_hit_rate(),
                static_cast<unsigned long long>(encoded_texts),
                static_cast<unsigned long long>(snapshot_swaps));
  out.append(buf);
  AppendHistogramLine(&out, "batch sizes:", batch_size_hist.data(),
                      BatchBounds());
  const char* stage_names[kNumStages] = {"encode us:", "search us:",
                                         "total us: "};
  for (int s = 0; s < kNumStages; ++s) {
    AppendHistogramLine(&out, stage_names[s], latency_hist[s].data(),
                        LatencyBoundsUs());
  }
  return out;
}

ServeStats::ServeStats(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  queries_ = registry_->GetCounter("serve.queries");
  text_queries_ = registry_->GetCounter("serve.text_queries");
  embedding_queries_ = registry_->GetCounter("serve.embedding_queries");
  failed_queries_ = registry_->GetCounter("serve.failed_queries");
  no_match_answers_ = registry_->GetCounter("serve.no_match_answers");
  batched_queries_ = registry_->GetCounter("serve.batched_queries");
  cache_hits_ = registry_->GetCounter("serve.cache_hits");
  cache_misses_ = registry_->GetCounter("serve.cache_misses");
  encoded_texts_ = registry_->GetCounter("serve.encoded_texts");
  snapshot_swaps_ = registry_->GetCounter("serve.snapshot_swaps");
  batch_size_hist_ =
      registry_->GetHistogram("serve.batch_size", BatchBounds());
  const char* stage_names[StatsSnapshot::kNumStages] = {
      "serve.latency_us.encode", "serve.latency_us.search",
      "serve.latency_us.total"};
  for (int s = 0; s < StatsSnapshot::kNumStages; ++s) {
    latency_hist_[static_cast<size_t>(s)] =
        registry_->GetHistogram(stage_names[s], LatencyBoundsUs());
  }
}

void ServeStats::RecordQuery(bool is_text) {
  queries_->Increment();
  if (is_text) {
    text_queries_->Increment();
  } else {
    embedding_queries_->Increment();
  }
}

void ServeStats::RecordFailedQuery() { failed_queries_->Increment(); }

void ServeStats::RecordNoMatch() { no_match_answers_->Increment(); }

void ServeStats::RecordBatch(uint64_t batch_size) {
  batched_queries_->Increment(batch_size);
  batch_size_hist_->Record(static_cast<double>(batch_size));
}

void ServeStats::RecordCacheHit() { cache_hits_->Increment(); }

void ServeStats::RecordCacheMiss() { cache_misses_->Increment(); }

void ServeStats::RecordEncodedTexts(uint64_t count) {
  encoded_texts_->Increment(count);
}

void ServeStats::RecordSwap() { snapshot_swaps_->Increment(); }

void ServeStats::RecordLatency(Stage stage, int64_t micros) {
  latency_hist_[static_cast<size_t>(stage)]->Record(
      static_cast<double>(micros));
}

StatsSnapshot ServeStats::Snapshot() const {
  StatsSnapshot snap;
  // The per-kind counts before the total: RecordQuery bumps the total
  // first, so every query counted by kind is already in the total and
  // queries >= text_queries holds under concurrent writers.
  snap.text_queries = text_queries_->Value();
  snap.embedding_queries = embedding_queries_->Value();
  snap.queries = queries_->Value();
  snap.failed_queries = failed_queries_->Value();
  snap.no_match_answers = no_match_answers_->Value();
  // The histogram before batched_queries: RecordBatch adds a batch's size
  // there first, so every batch counted here is already in the sum and
  // mean_batch_size() stays >= 1 under concurrent writers.
  CopyBuckets(batch_size_hist_->Snapshot(), &snap.batch_size_hist);
  for (uint64_t count : snap.batch_size_hist) snap.batches += count;
  snap.batched_queries = batched_queries_->Value();
  snap.cache_hits = cache_hits_->Value();
  snap.cache_misses = cache_misses_->Value();
  snap.encoded_texts = encoded_texts_->Value();
  snap.snapshot_swaps = snapshot_swaps_->Value();
  for (int s = 0; s < StatsSnapshot::kNumStages; ++s) {
    CopyBuckets(latency_hist_[static_cast<size_t>(s)]->Snapshot(),
                &snap.latency_hist[static_cast<size_t>(s)]);
  }
  return snap;
}

void ServeStats::Reset() {
  queries_->Reset();
  text_queries_->Reset();
  embedding_queries_->Reset();
  failed_queries_->Reset();
  no_match_answers_->Reset();
  batched_queries_->Reset();
  cache_hits_->Reset();
  cache_misses_->Reset();
  encoded_texts_->Reset();
  snapshot_swaps_->Reset();
  batch_size_hist_->Reset();
  for (obs::HistogramCell* cell : latency_hist_) cell->Reset();
}

}  // namespace sdea::serve
