// google-benchmark microbenchmarks for the sdea::store quantized snapshot
// layer: codebook encoding, the ADC scan kernels (the int8 scan at both
// SIMD levels), snapshot open latency (the O(ms) mmap claim), the end-to-end
// quantized query against the full-precision baseline, and a
// recall@10-vs-latency row per retrieval configuration. Memory footprints
// are emitted as counters so the JSON records the compression ratios next
// to the latencies.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "bench/bench_meta.h"
#include "core/embedding_store.h"
#include "store/adc.h"
#include "store/quantized_store.h"
#include "store/quantizer.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "testing/kernel_config.h"

namespace {

using namespace sdea;
using tmath::SimdLevel;

bool SkipUnsupported(benchmark::State& state, SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !tmath::Avx2Supported()) {
    state.SkipWithError("AVX2+FMA not supported on this host");
    return true;
  }
  return false;
}

Tensor RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, d});
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  tmath::L2NormalizeRowsInPlace(&t);
  return t;
}

std::vector<std::string> Names(int64_t n) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) names.push_back("e" + std::to_string(i));
  return names;
}

std::string TempStoreDir(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

void BM_Int8Encode(benchmark::State& state) {
  const int64_t n = state.range(0), d = 128;
  const Tensor rows = RandomRows(n, d, 1);
  const store::Codebook cb = store::Codebook::TrainInt8(rows);
  for (auto _ : state) {
    auto codes = cb.EncodeRows(rows.data(), n);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Int8Encode)->Arg(4096)->Arg(32768);

void BM_PqEncode(benchmark::State& state) {
  const int64_t n = state.range(0), d = 128;
  const Tensor rows = RandomRows(n, d, 2);
  store::PqOptions options;
  options.num_subspaces = 16;
  auto cb = store::Codebook::TrainPq(rows, options);
  SDEA_CHECK(cb.ok());
  for (auto _ : state) {
    auto codes = cb->EncodeRows(rows.data(), n);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PqEncode)->Arg(4096);

void BM_AdcScanInt8(benchmark::State& state, SimdLevel level) {
  if (SkipUnsupported(state, level)) return;
  sdea::testing::ScopedSimdLevel pin_level(level);
  const int64_t n = state.range(0), d = 128;
  const Tensor rows = RandomRows(n, d, 3);
  const store::Codebook cb = store::Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  const Tensor q = RandomRows(1, d, 4);
  std::vector<float> q_scaled(static_cast<size_t>(d));
  store::Int8PrepareQuery(q.data(), cb.scales().data(), d, q_scaled.data());
  std::vector<float> scores(static_cast<size_t>(n));
  for (auto _ : state) {
    store::AdcScanInt8(codes.data(), n, d, q_scaled.data(), scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * n * d);
}
BENCHMARK_CAPTURE(BM_AdcScanInt8, exact_scalar, SimdLevel::kScalar)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_AdcScanInt8, exact_avx2, SimdLevel::kAvx2)
    ->Arg(65536);

void BM_AdcScanPq(benchmark::State& state) {
  const int64_t n = state.range(0), d = 128;
  const Tensor rows = RandomRows(n, d, 5);
  store::PqOptions options;
  options.num_subspaces = 16;
  auto cb = store::Codebook::TrainPq(rows, options);
  SDEA_CHECK(cb.ok());
  const std::vector<uint8_t> codes = cb->EncodeRows(rows.data(), n);
  const Tensor q = RandomRows(1, d, 6);
  std::vector<float> lut(
      static_cast<size_t>(cb->pq_subspaces() * cb->pq_centroids()));
  store::PqBuildLut(q.data(), *cb, lut.data());
  std::vector<float> scores(static_cast<size_t>(n));
  for (auto _ : state) {
    store::AdcScanPq(codes.data(), n, cb->pq_subspaces(),
                     cb->pq_centroids(), lut.data(), scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * n * cb->pq_subspaces());
}
BENCHMARK(BM_AdcScanPq)->Arg(65536);

void BM_StoreOpen(benchmark::State& state) {
  // The open-latency claim: only the manifest and the shard header pages
  // are touched, so opening is O(shards), not O(rows). The counters record
  // the on-disk compression the opened store reports.
  const int64_t n = state.range(0), d = 64;
  const std::string dir =
      TempStoreDir("sdea_bench_open_" + std::to_string(n));
  store::StoreWriteOptions options;
  options.rows_per_shard = 65536;
  SDEA_CHECK_OK(
      store::QuantizedStore::Write(dir, Names(n), RandomRows(n, d, 7),
                                   options));
  int64_t compressed = 0, full = 0;
  for (auto _ : state) {
    auto opened = store::QuantizedStore::Open(dir);
    SDEA_CHECK(opened.ok());
    compressed = opened->compressed_bytes();
    full = opened->full_precision_bytes();
    benchmark::DoNotOptimize(opened->size());
  }
  state.counters["compressed_bytes"] =
      benchmark::Counter(static_cast<double>(compressed));
  state.counters["full_precision_bytes"] =
      benchmark::Counter(static_cast<double>(full));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StoreOpen)->Arg(100000)->Unit(benchmark::kMillisecond);

// Current resident set in MiB, from /proc/self/status. Good enough to show
// a query sweep pages in the compressed region, not the full-precision one.
double VmRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

void BM_StoreOpen1M(benchmark::State& state) {
  // The headline acceptance number: a 1,000,000-entity sharded snapshot
  // opens in O(ms) — only the manifest and four shard header pages are
  // read — and a query sweep grows RSS by roughly the compressed size
  // (64 MB of int8 codes here), not the 256 MB the full-precision rows
  // would cost resident. Written once per bench process, ADC-only.
  const int64_t n = 1'000'000, d = 64;
  static const std::string* dir = [] {
    auto* path = new std::string(TempStoreDir("sdea_bench_open_1m"));
    store::StoreWriteOptions options;
    options.rows_per_shard = 262'144;
    options.store_full_precision = false;
    SDEA_CHECK_OK(store::QuantizedStore::Write(
        *path, Names(1'000'000), RandomRows(1'000'000, 64, 12), options));
    return path;
  }();
  for (auto _ : state) {
    auto opened = store::QuantizedStore::Open(*dir);
    SDEA_CHECK(opened.ok());
    benchmark::DoNotOptimize(opened->size());
  }
  auto opened = store::QuantizedStore::Open(*dir);
  SDEA_CHECK(opened.ok());
  const double rss_before = VmRssMb();
  const Tensor queries = RandomRows(16, d, 13);
  for (int64_t i = 0; i < queries.dim(0); ++i) {
    auto c = opened->NearestNeighbors(queries.Row(i), 10);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["sweep_rss_delta_mb"] =
      benchmark::Counter(VmRssMb() - rss_before);
  state.counters["compressed_bytes"] =
      benchmark::Counter(static_cast<double>(opened->compressed_bytes()));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StoreOpen1M)->Unit(benchmark::kMillisecond);

void BM_QuantizedSearch(benchmark::State& state, store::Quantization kind) {
  const int64_t n = state.range(0), d = 64;
  const std::string dir = TempStoreDir(
      "sdea_bench_search_" + std::string(store::QuantizationName(kind)));
  store::StoreWriteOptions options;
  options.quantization = kind;
  SDEA_CHECK_OK(store::QuantizedStore::Write(dir, Names(n),
                                             RandomRows(n, d, 8), options));
  auto opened = store::QuantizedStore::Open(dir);
  SDEA_CHECK(opened.ok());
  const Tensor q = RandomRows(1, d, 9);
  for (auto _ : state) {
    auto neighbors = opened->NearestNeighbors(q.Row(0), 10);
    benchmark::DoNotOptimize(neighbors.data());
  }
  state.counters["compressed_bytes"] =
      benchmark::Counter(static_cast<double>(opened->compressed_bytes()));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_QuantizedSearch, int8, store::Quantization::kInt8)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_QuantizedSearch, pq, store::Quantization::kPq)
    ->Arg(100000);

void BM_FullPrecisionSearch(benchmark::State& state) {
  // The baseline the quantized rows compare against: the in-RAM
  // EmbeddingStore exact scan over the same data.
  const int64_t n = state.range(0), d = 64;
  auto ref = core::EmbeddingStore::Create(Names(n), RandomRows(n, d, 8));
  SDEA_CHECK(ref.ok());
  const Tensor q = RandomRows(1, d, 9);
  for (auto _ : state) {
    auto neighbors = ref->NearestNeighbors(q.Row(0), 10);
    benchmark::DoNotOptimize(neighbors.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FullPrecisionSearch)->Arg(100000);

// The recall@10-vs-latency table: one row per retrieval configuration
// over one seeded table and query set, each reporting its per-query
// latency and its recall@10 against the exact scan. All three run through
// core::VectorIndex — exact, and int8 / PQ ADC with the exact rerank at
// the default pool.
enum class Retrieval { kExact, kInt8, kPq };

struct RetrievalFixture {
  static constexpr int64_t kRows = 50000, kDim = 64, kQueries = 64;

  core::EmbeddingStore exact;
  store::QuantizedStore int8, pq;
  Tensor queries = RandomRows(kQueries, kDim, 15);
  std::vector<std::vector<core::EmbeddingStore::Neighbor>> truth;

  static const RetrievalFixture& Get() {
    static const RetrievalFixture* fixture = new RetrievalFixture;
    return *fixture;
  }

  std::vector<core::EmbeddingStore::Neighbor> Search(Retrieval config,
                                                     const Tensor& q) const {
    switch (config) {
      case Retrieval::kExact:
        return exact.NearestNeighbors(q, 10);
      case Retrieval::kInt8:
        return int8.NearestNeighbors(q, 10);
      case Retrieval::kPq:
        return pq.NearestNeighbors(q, 10);
    }
    return {};
  }

 private:
  RetrievalFixture() {
    const Tensor table = RandomRows(kRows, kDim, 14);
    exact = core::EmbeddingStore::Create(Names(kRows), table).value();
    int8 = Open(table, store::Quantization::kInt8);
    pq = Open(table, store::Quantization::kPq);
    for (int64_t i = 0; i < kQueries; ++i) {
      truth.push_back(exact.NearestNeighbors(queries.Row(i), 10));
    }
  }

  static store::QuantizedStore Open(const Tensor& table,
                                    store::Quantization kind) {
    const std::string dir = TempStoreDir(
        "sdea_bench_retrieval_" + std::string(store::QuantizationName(kind)));
    store::StoreWriteOptions options;
    options.quantization = kind;
    SDEA_CHECK_OK(
        store::QuantizedStore::Write(dir, Names(kRows), table, options));
    auto opened = store::QuantizedStore::Open(dir);
    SDEA_CHECK(opened.ok());
    return std::move(opened).value();
  }
};

void BM_Retrieval(benchmark::State& state, Retrieval config) {
  const RetrievalFixture& f = RetrievalFixture::Get();
  int64_t i = 0;
  for (auto _ : state) {
    auto answer = f.Search(config, f.queries.Row(i++ % f.kQueries));
    benchmark::DoNotOptimize(answer.data());
  }
  int64_t found = 0;
  for (int64_t q = 0; q < f.kQueries; ++q) {
    for (const auto& got : f.Search(config, f.queries.Row(q))) {
      for (const auto& want : f.truth[static_cast<size_t>(q)]) {
        found += got.id == want.id;
      }
    }
  }
  state.counters["recall10"] = benchmark::Counter(
      static_cast<double>(found) / static_cast<double>(f.kQueries * 10));
  state.counters["rows"] = benchmark::Counter(static_cast<double>(f.kRows));
}
BENCHMARK_CAPTURE(BM_Retrieval, exact, Retrieval::kExact)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Retrieval, int8_rerank, Retrieval::kInt8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Retrieval, pq_rerank, Retrieval::kPq)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults to machine-readable JSON output
// (BENCH_store.json) with the kernel configuration stamped into the
// context block. CI archives that file next to BENCH_kernels.json.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_store.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  sdea::bench::AddKernelContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
