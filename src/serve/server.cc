#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "base/threadpool.h"
#include "obs/trace.h"
#include "text/normalizer.h"

namespace sdea::serve {
namespace {

using Clock = std::chrono::steady_clock;

int64_t MicrosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

}  // namespace

AlignmentServer::AlignmentServer(const ServerOptions& options,
                                 BatchEncoderFn encoder)
    : options_(options),
      encoder_(std::move(encoder)),
      cache_(options.cache),
      stats_(options.metrics) {
  batcher_ = std::make_unique<RequestBatcher>(
      options_.batcher,
      [this](std::vector<ServeRequest>* batch) { RunBatch(batch); });
}

uint64_t AlignmentServer::SwapSnapshot(core::EmbeddingStore store) {
  const uint64_t version = snapshots_.Swap(std::move(store));
  stats_.RecordSwap();
  return version;
}

Result<uint64_t> AlignmentServer::LoadSnapshot(const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(uint64_t version, snapshots_.LoadAndSwap(path));
  stats_.RecordSwap();
  return version;
}

Result<uint64_t> AlignmentServer::LoadQuantizedSnapshot(
    const std::string& dir) {
  SDEA_ASSIGN_OR_RETURN(uint64_t version,
                        snapshots_.OpenQuantizedAndSwap(dir));
  stats_.RecordSwap();
  return version;
}

AlignResult AlignmentServer::AlignEmbedding(const Tensor& query, int64_t k) {
  return AlignEmbeddingAsync(query, k).get();
}

AlignResult AlignmentServer::AlignText(const std::string& text, int64_t k) {
  return AlignTextAsync(text, k).get();
}

std::future<AlignResult> AlignmentServer::AlignEmbeddingAsync(Tensor query,
                                                              int64_t k) {
  ServeRequest request;
  request.is_text = false;
  request.embedding = std::move(query);
  request.k = k;
  return batcher_->Submit(std::move(request));
}

std::future<AlignResult> AlignmentServer::AlignTextAsync(std::string text,
                                                         int64_t k) {
  ServeRequest request;
  request.is_text = true;
  // Normalizing on the client thread keeps the dispatcher lean.
  request.text = options_.normalize_text ? text::NormalizeText(text)
                                         : std::move(text);
  request.k = k;
  return batcher_->Submit(std::move(request));
}

void AlignmentServer::ReconfigureBatcher(const BatcherOptions& options) {
  batcher_.reset();  // Drains the old dispatcher before the new one starts.
  options_.batcher = options;
  batcher_ = std::make_unique<RequestBatcher>(
      options_.batcher,
      [this](std::vector<ServeRequest>* batch) { RunBatch(batch); });
}

void AlignmentServer::RunBatch(std::vector<ServeRequest>* batch) {
  obs::TraceSpan batch_span("serve/batch");
  const size_t n = batch->size();
  stats_.RecordBatch(n);

  // Pin ONE snapshot for the whole batch: every answer below reads this
  // object, so a concurrent swap cannot make a batch straddle two stores.
  const std::shared_ptr<const ServingSnapshot> snap = snapshots_.Current();
  if (snap == nullptr) {
    for (ServeRequest& request : *batch) {
      stats_.RecordFailedQuery();
      request.promise.set_value(AlignResult(
          Status::FailedPrecondition("no snapshot loaded; call "
                                     "SwapSnapshot/LoadSnapshot first")));
    }
    return;
  }

  std::vector<Status> failed(n);  // Defaults to OK.

  // Resolve text queries through the cache; deduplicate the misses so one
  // text appearing several times in a batch is encoded once.
  std::vector<size_t> miss_requests;
  std::vector<std::string> texts_to_encode;
  std::unordered_map<std::string, size_t> text_row;
  for (size_t i = 0; i < n; ++i) {
    ServeRequest& request = (*batch)[i];
    if (!request.is_text) continue;
    if (cache_.Get(request.text, &request.embedding)) {
      stats_.RecordCacheHit();
      continue;
    }
    stats_.RecordCacheMiss();
    miss_requests.push_back(i);
    if (text_row.emplace(request.text, texts_to_encode.size()).second) {
      texts_to_encode.push_back(request.text);
    }
  }

  if (!texts_to_encode.empty()) {
    if (encoder_ == nullptr) {
      for (size_t i : miss_requests) {
        failed[i] = Status::InvalidArgument(
            "text query but no encoder configured");
      }
    } else {
      obs::TraceSpan encode_span("serve/encode");
      const auto encode_start = Clock::now();
      const Tensor encoded = encoder_(texts_to_encode);
      stats_.RecordLatency(ServeStats::Stage::kEncode,
                           MicrosSince(encode_start));
      if (encoded.rank() != 2 ||
          encoded.dim(0) != static_cast<int64_t>(texts_to_encode.size())) {
        for (size_t i : miss_requests) {
          failed[i] = Status::Internal(
              "encoder returned wrong shape: " + encoded.DebugString());
        }
      } else {
        stats_.RecordEncodedTexts(texts_to_encode.size());
        for (size_t i : miss_requests) {
          (*batch)[i].embedding = encoded.Row(static_cast<int64_t>(
              text_row.at((*batch)[i].text)));
        }
        for (size_t row = 0; row < texts_to_encode.size(); ++row) {
          cache_.Put(texts_to_encode[row],
                     encoded.Row(static_cast<int64_t>(row)));
        }
      }
    }
  }

  const int64_t dim = snap->dim();
  for (size_t i = 0; i < n; ++i) {
    if (!failed[i].ok()) continue;
    // Mirror the store's own dim contract: enforced whenever the snapshot
    // has a known dim — including an empty [0, d] store, whose
    // NearestNeighbors now CHECKs the dim before returning its empty
    // answer. Only a dim-less (default-constructed) store skips it.
    if (dim > 0 && (*batch)[i].embedding.size() != dim) {
      failed[i] = Status::InvalidArgument(
          "query dim " + std::to_string((*batch)[i].embedding.size()) +
          " != store dim " + std::to_string(dim));
    }
  }

  // Answer each row with the identical computation a serial
  // store.NearestNeighbors call runs; rows are sharded across the pool and
  // each writes only its own slot, so results are bitwise-equal to serial
  // one-at-a-time answers for every thread count and batch composition.
  std::vector<std::vector<Neighbor>> results(n);
  {
    obs::TraceSpan search_span("serve/search");
    const auto search_start = Clock::now();
    const int64_t per_query =
        5 *
        (1 + static_cast<int64_t>(
                 std::sqrt(static_cast<double>(snap->size())))) *
        std::max<int64_t>(dim, 1);
    base::ParallelFor(static_cast<int64_t>(n),
                      base::GrainForWork(static_cast<int64_t>(n), per_query),
                      [&](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) {
                          const auto idx = static_cast<size_t>(i);
                          if (!failed[idx].ok()) continue;
                          results[idx] = snap->NearestNeighbors(
                              (*batch)[idx].embedding, (*batch)[idx].k);
                        }
                      });
    stats_.RecordLatency(ServeStats::Stage::kSearch,
                         MicrosSince(search_start));
  }

  for (size_t i = 0; i < n; ++i) {
    ServeRequest& request = (*batch)[i];
    stats_.RecordLatency(ServeStats::Stage::kTotal,
                         MicrosSince(request.enqueue_time));
    if (failed[i].ok()) {
      std::vector<Neighbor>& answer = results[i];
      // A nonsense score is never served: NaN rows (zero-norm or diverged
      // embeddings) and -inf pad entries would otherwise win or lose the
      // argmax arbitrarily. Before this filter, an all-NaN store row could
      // be returned as the "best" neighbor with similarity NaN.
      answer.erase(std::remove_if(answer.begin(), answer.end(),
                                  [](const Neighbor& nb) {
                                    return !std::isfinite(nb.similarity);
                                  }),
                   answer.end());
      if (options_.abstain.enabled && !answer.empty()) {
        // Neighbors arrive sorted by decreasing similarity, so the no-match
        // rule reads top1 and the top1-top2 margin directly. One candidate
        // means no runner-up to confuse with: margin is +inf.
        const float top1 = answer.front().similarity;
        const float margin =
            answer.size() > 1
                ? top1 - answer[1].similarity
                : std::numeric_limits<float>::infinity();
        if (!options_.abstain.Accepts(top1, margin)) {
          answer.clear();
          stats_.RecordNoMatch();
        }
      }
      stats_.RecordQuery(request.is_text);
      request.promise.set_value(AlignResult(std::move(answer)));
    } else {
      stats_.RecordFailedQuery();
      request.promise.set_value(AlignResult(std::move(failed[i])));
    }
  }
}

}  // namespace sdea::serve
