#include "store/quantized_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "base/fileio.h"
#include "base/wire.h"
#include "core/vector_index.h"
#include "obs/registry.h"
#include "store/adc.h"

namespace sdea::store {
namespace {

/// Handles into the process-wide registry, resolved once; recording is
/// lock-free (the obs discipline). Latency buckets span 1us..~4s.
struct StoreMetrics {
  obs::Counter* opens;
  obs::Counter* queries;
  obs::Gauge* open_ms;
  obs::HistogramCell* adc_us;
  obs::HistogramCell* rerank_us;
  obs::Counter* rerank_rows;

  static const StoreMetrics& Get() {
    static StoreMetrics* m = [] {
      obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
      const std::vector<double> us =
          obs::Histogram::Exponential(1.0, 2.0, 22).upper_bounds();
      auto* out = new StoreMetrics;
      out->opens = reg->GetCounter("store.opens");
      out->queries = reg->GetCounter("store.queries");
      out->open_ms = reg->GetGauge("store.open_ms");
      out->adc_us = reg->GetHistogram("store.adc_us", us);
      out->rerank_us = reg->GetHistogram("store.rerank_us", us);
      out->rerank_rows = reg->GetCounter("store.rerank_rows");
      return out;
    }();
    return *m;
  }
};

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

Status QuantizedStore::Write(const std::string& dir,
                             const std::vector<std::string>& names,
                             const Tensor& embeddings,
                             const StoreWriteOptions& options) {
  if (embeddings.rank() != 2 ||
      embeddings.dim(0) != static_cast<int64_t>(names.size())) {
    return Status::InvalidArgument("embeddings must be [names.size(), d]");
  }
  if (options.rows_per_shard <= 0) {
    return Status::InvalidArgument("rows_per_shard must be positive");
  }
  {
    std::unordered_set<std::string> unique(names.begin(), names.end());
    if (unique.size() != names.size()) {
      return Status::InvalidArgument("entity names must be unique");
    }
  }
  SDEA_RETURN_IF_ERROR(MakeDirectory(dir));

  // Same normalization as EmbeddingStore::Create, so the fp32 regions
  // (and therefore rerank scores) are byte-identical to what the
  // full-precision store would serve.
  Tensor norm = embeddings;
  tmath::L2NormalizeRowsInPlace(&norm);
  const int64_t n = norm.dim(0), d = norm.dim(1);

  Manifest manifest;
  manifest.dim = d;
  manifest.total_rows = n;
  manifest.quantization = options.quantization;
  manifest.store_full_precision = options.store_full_precision;
  if (options.quantization == Quantization::kInt8) {
    manifest.codebook = Codebook::TrainInt8(norm);
  } else {
    SDEA_ASSIGN_OR_RETURN(manifest.codebook,
                          Codebook::TrainPq(norm, options.pq));
  }

  // Shards first, manifest last: the snapshot becomes visible only once
  // everything it references is durably in place.
  const int64_t shard_count =
      n == 0 ? 0 : (n + options.rows_per_shard - 1) / options.rows_per_shard;
  manifest.shards.reserve(static_cast<size_t>(shard_count));
  for (int64_t s = 0; s < shard_count; ++s) {
    const int64_t begin = s * options.rows_per_shard;
    const int64_t rows = std::min(options.rows_per_shard, n - begin);
    const std::vector<uint8_t> codes =
        manifest.codebook.EncodeRows(norm.data() + begin * d, rows);
    const std::string blob = EncodeShard(
        manifest.codebook, codes.data(),
        options.store_full_precision ? norm.data() + begin * d : nullptr,
        rows, names, begin);
    SDEA_RETURN_IF_ERROR(WriteStringToFileAtomic(ShardPath(dir, s), blob));
    manifest.shards.push_back(
        ShardInfo{rows, static_cast<int64_t>(blob.size())});
  }
  return WriteStringToFileAtomic(ManifestPath(dir),
                                 EncodeManifest(manifest));
}

Result<QuantizedStore> QuantizedStore::Open(const std::string& dir) {
  const auto t0 = std::chrono::steady_clock::now();
  SDEA_ASSIGN_OR_RETURN(std::string manifest_blob,
                        ReadFileToString(ManifestPath(dir)));
  auto manifest = DecodeManifest(manifest_blob);
  if (!manifest.ok()) {
    return Status(manifest.status().code(),
                  manifest.status().message() + ": " + ManifestPath(dir));
  }
  QuantizedStore out;
  out.manifest_ = std::move(*manifest);
  out.total_rows_ = out.manifest_.total_rows;
  out.shards_.reserve(out.manifest_.shards.size());
  int64_t row_begin = 0;
  for (size_t s = 0; s < out.manifest_.shards.size(); ++s) {
    const ShardInfo& info = out.manifest_.shards[s];
    const std::string path = ShardPath(dir, static_cast<int64_t>(s));
    Shard shard;
    SDEA_ASSIGN_OR_RETURN(shard.map, MmapFile::Open(path));
    auto header = DecodeShardHeader(std::string_view(
        reinterpret_cast<const char*>(shard.map.data()), shard.map.size()));
    if (!header.ok()) {
      return Status(header.status().code(),
                    header.status().message() + ": " + path);
    }
    shard.header = *header;
    // The shard must be the one the manifest promised: same geometry,
    // same quantization, same codebook stride.
    if (shard.header.rows != info.rows ||
        shard.header.file_bytes != static_cast<uint64_t>(info.file_bytes) ||
        shard.header.dim != out.manifest_.dim ||
        shard.header.quantization !=
            static_cast<uint64_t>(out.manifest_.quantization) ||
        shard.header.code_bytes_per_row !=
            out.manifest_.codebook.code_bytes() ||
        (out.manifest_.store_full_precision ==
         (shard.header.fp32_offset == 0))) {
      return Status::InvalidArgument(
          "store shard disagrees with manifest: " + path);
    }
    shard.row_begin = row_begin;
    row_begin += shard.header.rows;
    out.compressed_bytes_ +=
        shard.header.rows * shard.header.code_bytes_per_row;
    if (shard.header.fp32_offset != 0) {
      out.full_precision_bytes_ +=
          shard.header.rows * shard.header.dim *
          static_cast<int64_t>(sizeof(float));
    }
    out.shards_.push_back(std::move(shard));
  }
  const StoreMetrics& metrics = StoreMetrics::Get();
  metrics.opens->Increment();
  metrics.open_ms->Set(ElapsedUs(t0) / 1000.0);
  return out;
}

const QuantizedStore::Shard& QuantizedStore::ShardForRow(
    int64_t id, int64_t* local) const {
  SDEA_CHECK_GE(id, 0);
  SDEA_CHECK_LT(id, total_rows_);
  // Shards are equal-sized except the last, so the division lands either
  // on the right shard or one past (never short).
  size_t s = std::min(
      shards_.size() - 1,
      static_cast<size_t>(id / std::max<int64_t>(
                                   1, shards_.front().header.rows)));
  while (id < shards_[s].row_begin) --s;
  *local = id - shards_[s].row_begin;
  return shards_[s];
}

const float* QuantizedStore::row(int64_t id) const {
  if (!manifest_.store_full_precision) return nullptr;
  int64_t local = 0;
  const Shard& shard = ShardForRow(id, &local);
  return reinterpret_cast<const float*>(shard.map.data() +
                                        shard.header.fp32_offset) +
         local * manifest_.dim;
}

std::string QuantizedStore::name(int64_t id) const {
  int64_t local = 0;
  const Shard& shard = ShardForRow(id, &local);
  const uint8_t* index =
      shard.map.data() + shard.header.names_index_offset;
  const uint64_t begin = wire::LoadU64(index + 8 * local);
  const uint64_t end = wire::LoadU64(index + 8 * (local + 1));
  const char* blob = reinterpret_cast<const char*>(
      shard.map.data() + shard.header.names_blob_offset);
  return std::string(blob + begin, end - begin);
}

std::vector<QuantizedStore::Neighbor> QuantizedStore::NearestNeighbors(
    const Tensor& query, int64_t k,
    const StoreQueryOptions& options) const {
  // Same guard order as EmbeddingStore::NearestNeighbors: the dim
  // contract holds even for empty stores and k <= 0.
  if (dim() > 0) SDEA_CHECK_EQ(query.size(), dim());
  if (total_rows_ == 0 || k <= 0) return {};
  const StoreMetrics& metrics = StoreMetrics::Get();
  metrics.queries->Increment();

  // The index owns the ranking; the store hands it the per-shard ADC scan
  // and, when the snapshot kept them, the mmap'd fp32 rows to rerank on.
  // store.adc_us times the scan; store.rerank_us everything after it (the
  // survivor pool, the exact rescoring and the final order).
  auto scan_end = std::chrono::steady_clock::now();
  const auto scan = [&](const float* q, float* scores) {
    const auto start = std::chrono::steady_clock::now();
    for (const Shard& shard : shards_) {
      AdcScan(manifest_.codebook, q,
              shard.map.data() + shard.header.codes_offset,
              shard.header.rows, scores + shard.row_begin);
    }
    metrics.adc_us->Record(ElapsedUs(start));
    scan_end = std::chrono::steady_clock::now();
  };
  core::VectorIndex::RowFn rows;
  if (has_full_precision()) rows = [this](int64_t id) { return row(id); };
  const core::VectorIndex index(total_rows_, dim(), scan, std::move(rows),
                                options.rerank_pool);
  const std::vector<core::VectorIndex::Hit> hits =
      index.Search(query.data(), k);
  if (const int64_t pool = index.RerankPool(k); pool > 0) {
    metrics.rerank_us->Record(ElapsedUs(scan_end));
    metrics.rerank_rows->Increment(static_cast<uint64_t>(pool));
  }

  std::vector<Neighbor> out;
  out.reserve(hits.size());
  for (const core::VectorIndex::Hit& hit : hits) {
    out.push_back(Neighbor{name(hit.id), hit.id, hit.score});
  }
  return out;
}

}  // namespace sdea::store
