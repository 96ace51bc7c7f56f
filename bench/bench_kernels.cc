// google-benchmark microbenchmarks for the hot kernels underneath SDEA:
// dense/sparse matmul, tokenizer encode, transformer & BiGRU forward,
// candidate generation, stable matching, and benchmark generation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "base/threadpool.h"
#include "bench/bench_meta.h"
#include "core/candidate_generator.h"
#include "core/stable_matching.h"
#include "datagen/generator.h"
#include "eval/metrics.h"
#include "nn/gru.h"
#include "nn/transformer.h"
#include "tensor/kernels.h"
#include "tensor/topk.h"
#include "testing/kernel_config.h"
#include "text/tokenizer.h"

namespace {

using namespace sdea;

// Rebuilds the global pool at the requested size for the *Threaded benches
// and restores the ambient default on destruction.
class ScopedThreads {
 public:
  explicit ScopedThreads(int num_threads) {
    base::ThreadPool::SetGlobalNumThreads(num_threads);
  }
  ~ScopedThreads() {
    base::ThreadPool::SetGlobalNumThreads(
        base::ThreadPool::DefaultNumThreads());
  }
};

// --- Kernel variants: scalar | avx2. --------------------------------------
// Registered via BENCHMARK_CAPTURE so rows read e.g.
// BM_Matmul512/exact_avx2; compare rows of the same shape to read off the
// AVX2-vs-scalar speedup. Both levels keep the one exact contract, so the
// rows differ only in speed. AVX2 rows skip with an error on hosts without
// AVX2+FMA instead of silently running scalar.

using tmath::SimdLevel;

bool SkipUnsupported(benchmark::State& state, SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !tmath::Avx2Supported()) {
    state.SkipWithError("AVX2+FMA not supported on this host");
    return true;
  }
  return false;
}

void BM_Matmul512(benchmark::State& state, SimdLevel level) {
  if (SkipUnsupported(state, level)) return;
  sdea::testing::ScopedSimdLevel pin_level(level);
  Rng rng(21);
  Tensor a = Tensor::RandomNormal({256, 512}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({512, 256}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = tmath::Matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 512 * 256);
}
BENCHMARK_CAPTURE(BM_Matmul512, exact_scalar, SimdLevel::kScalar);
BENCHMARK_CAPTURE(BM_Matmul512, exact_avx2, SimdLevel::kAvx2);

void BM_ScoreMatrix512(benchmark::State& state, SimdLevel level) {
  // MatmulTransposeB over 512-dim rows: the alignment score matrix.
  if (SkipUnsupported(state, level)) return;
  sdea::testing::ScopedSimdLevel pin_level(level);
  Rng rng(22);
  Tensor a = Tensor::RandomNormal({256, 512}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({256, 512}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = tmath::MatmulTransposeB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 512 * 256);
}
BENCHMARK_CAPTURE(BM_ScoreMatrix512, exact_scalar, SimdLevel::kScalar);
BENCHMARK_CAPTURE(BM_ScoreMatrix512, exact_avx2, SimdLevel::kAvx2);

void BM_Gemv512(benchmark::State& state, SimdLevel level) {
  // One query against `rows` stored 512-dim rows — the per-request shape
  // of candidate generation and EmbeddingStore::NearestNeighbors. Each
  // row is streamed exactly once, so the store size picks the regime:
  // 512 rows (1 MB) stay L2-resident and compare kernel throughput,
  // 8192 rows (16 MB) spill to L3/DRAM where every variant converges on
  // memory bandwidth and the SIMD gap narrows.
  if (SkipUnsupported(state, level)) return;
  sdea::testing::ScopedSimdLevel pin_level(level);
  const int64_t rows_n = state.range(0);
  Rng rng(23);
  Tensor rows = Tensor::RandomNormal({rows_n, 512}, 1.0f, &rng);
  Tensor x = Tensor::RandomNormal({512}, 1.0f, &rng);
  std::vector<float> y(static_cast<size_t>(rows_n));
  for (auto _ : state) {
    tmath::kernels::Gemv(rows.data(), rows_n, 512, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows_n * 512);
}
BENCHMARK_CAPTURE(BM_Gemv512, exact_scalar, SimdLevel::kScalar)
    ->Arg(512)
    ->Arg(8192);
BENCHMARK_CAPTURE(BM_Gemv512, exact_avx2, SimdLevel::kAvx2)
    ->Arg(512)
    ->Arg(8192);

void BM_GruStep(benchmark::State& state, SimdLevel level) {
  // The three products one BiGRU step makes per [32,32] weight matrix:
  // forward x @ W, backward dx = dy @ W^T and dW = x^T @ dy, each on a
  // single 32-wide row. The relation module runs about a million of these
  // per align_batch run, so per-call overhead counts as much as MAC rate.
  if (SkipUnsupported(state, level)) return;
  sdea::testing::ScopedSimdLevel pin_level(level);
  Rng rng(25);
  Tensor x = Tensor::RandomNormal({1, 32}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({32, 32}, 1.0f, &rng);
  Tensor dy = Tensor::RandomNormal({1, 32}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor y = tmath::Matmul(x, w);
    Tensor dx = tmath::MatmulTransposeB(dy, w);
    Tensor dw = tmath::MatmulTransposeA(x, dy);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(dx.data());
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * 32 * 32);
}
BENCHMARK_CAPTURE(BM_GruStep, exact_scalar, SimdLevel::kScalar);
BENCHMARK_CAPTURE(BM_GruStep, exact_avx2, SimdLevel::kAvx2);

// --- Top-k selection: radix select vs the old partial_sort. --------------
// Same (score desc, index asc) answer; compare BM_TopKRadix/m to
// BM_TopKPartialSort/m. k = 10, the candidate-generation default.

std::vector<float> TopKScores(int64_t m) {
  Rng rng(24);
  std::vector<float> scores(static_cast<size_t>(m));
  for (float& s : scores) s = rng.UniformFloat(-1.0f, 1.0f);
  return scores;
}

void BM_TopKRadix(benchmark::State& state) {
  const int64_t m = state.range(0);
  const std::vector<float> scores = TopKScores(m);
  for (auto _ : state) {
    auto top = tmath::TopK(scores.data(), m, 10);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_TopKRadix)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_TopKPartialSort(benchmark::State& state) {
  const int64_t m = state.range(0);
  const std::vector<float> scores = TopKScores(m);
  for (auto _ : state) {
    // The pre-radix implementation all four call sites hand-rolled.
    std::vector<int64_t> order(static_cast<size_t>(m));
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                      [&](int64_t a, int64_t b) {
                        const float sa = scores[static_cast<size_t>(a)];
                        const float sb = scores[static_cast<size_t>(b)];
                        if (sa != sb) return sa > sb;
                        return a < b;
                      });
    order.resize(10);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_TopKPartialSort)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandomNormal({n, n}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = tmath::Matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulTransposeB(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::RandomNormal({n, 32}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({n, 32}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = tmath::MatmulTransposeB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulTransposeB)->Arg(256)->Arg(1024);

// --- Serial-vs-N-thread comparisons for the sharded kernels. -------------
// Arg 0 is the problem size, arg 1 the thread count; compare rows with the
// same size to read off the scaling (e.g. {512, 1} vs {512, 8} Matmul).

void BM_MatmulThreaded(benchmark::State& state) {
  const int64_t n = state.range(0);
  ScopedThreads threads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Tensor a = Tensor::RandomNormal({n, n}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = tmath::Matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulThreaded)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Unit(benchmark::kMillisecond);

void BM_ScoreMatrixThreaded(benchmark::State& state) {
  // The n x m cosine score matrix behind the paper's tables:
  // MatmulTransposeB over row-normalized embeddings.
  const int64_t n = state.range(0);
  ScopedThreads threads(static_cast<int>(state.range(1)));
  Rng rng(2);
  Tensor a = Tensor::RandomNormal({n, 64}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal({n, 64}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = tmath::MatmulTransposeB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * 64);
}
BENCHMARK(BM_ScoreMatrixThreaded)
    ->Args({2048, 1})
    ->Args({2048, 8})
    ->Unit(benchmark::kMillisecond);

void BM_EvaluateAlignmentThreaded(benchmark::State& state) {
  const int64_t n = state.range(0);
  ScopedThreads threads(static_cast<int>(state.range(1)));
  Rng rng(3);
  Tensor src = Tensor::RandomNormal({n, 64}, 1.0f, &rng);
  Tensor tgt = Tensor::RandomNormal({n, 64}, 1.0f, &rng);
  std::vector<int64_t> gold(static_cast<size_t>(n));
  for (size_t i = 0; i < gold.size(); ++i) {
    gold[i] = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
  }
  for (auto _ : state) {
    auto m = eval::EvaluateAlignment(src, tgt, gold);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_EvaluateAlignmentThreaded)
    ->Args({2048, 1})
    ->Args({2048, 8})
    ->Unit(benchmark::kMillisecond);

void BM_StableMatchingThreaded(benchmark::State& state) {
  const int64_t n = state.range(0);
  ScopedThreads threads(static_cast<int>(state.range(1)));
  Rng rng(5);
  Tensor scores = Tensor::RandomNormal({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    auto m = core::StableMatch(scores);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_StableMatchingThreaded)
    ->Args({800, 1})
    ->Args({800, 8})
    ->Unit(benchmark::kMillisecond);

void BM_SparseMatmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  std::vector<std::tuple<int64_t, int64_t, float>> coo;
  for (int64_t i = 0; i < n * 8; ++i) {
    coo.emplace_back(static_cast<int64_t>(rng.UniformInt(n)),
                     static_cast<int64_t>(rng.UniformInt(n)), 1.0f);
  }
  CsrMatrix m = CsrMatrix::FromTriplets(n, n, coo);
  Tensor x = Tensor::RandomNormal({n, 64}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor y = m.Apply(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SparseMatmul)->Arg(1000)->Arg(4000);

text::SubwordTokenizer* SharedTokenizer() {
  static text::SubwordTokenizer* tok = [] {
    auto* t = new text::SubwordTokenizer();
    datagen::GeneratorConfig cfg;
    cfg.num_matched = 300;
    const auto bench = datagen::BenchmarkGenerator().Generate(cfg);
    std::vector<std::string> corpus;
    bench.kg1.Snapshot().ForEachAttribute(
        [&](int64_t, kg::EntityId, kg::AttributeId, const std::string& v) {
          corpus.push_back(v);
        });
    SDEA_CHECK_OK(t->Train(corpus, text::TokenizerConfig{}));
    return t;
  }();
  return tok;
}

void BM_TokenizerEncode(benchmark::State& state) {
  text::SubwordTokenizer* tok = SharedTokenizer();
  const std::string text =
      "kola ruma bani 1987 gendo mari tesa roma lipu kada nore sapa";
  for (auto _ : state) {
    auto ids = tok->Encode(text);
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_TokenizerEncode);

void BM_TransformerEncode(benchmark::State& state) {
  const int64_t t_len = state.range(0);
  Rng rng(5);
  nn::TransformerConfig cfg;
  cfg.vocab_size = 1000;
  cfg.max_len = 128;
  cfg.dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  cfg.ff_dim = 64;
  nn::TransformerEncoder enc("t", cfg, &rng);
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < t_len; ++i) {
    ids.push_back(static_cast<int64_t>(rng.UniformInt(1000)));
  }
  for (auto _ : state) {
    Graph g;
    NodeId out = enc.EncodeMean(&g, ids, false, nullptr);
    benchmark::DoNotOptimize(&g.Value(out));
  }
}
BENCHMARK(BM_TransformerEncode)->Arg(16)->Arg(64);

void BM_BiGruForward(benchmark::State& state) {
  const int64_t t_len = state.range(0);
  Rng rng(6);
  nn::BiGru gru("g", 32, 32, &rng);
  Tensor x = Tensor::RandomNormal({t_len, 32}, 1.0f, &rng);
  for (auto _ : state) {
    Graph g;
    NodeId out = gru.Forward(&g, g.Input(x));
    benchmark::DoNotOptimize(&g.Value(out));
  }
}
BENCHMARK(BM_BiGruForward)->Arg(8)->Arg(24);

void BM_CandidateGeneration(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  Tensor src = Tensor::RandomNormal({n, 32}, 1.0f, &rng);
  Tensor tgt = Tensor::RandomNormal({n, 32}, 1.0f, &rng);
  for (auto _ : state) {
    auto c = core::GenerateCandidates(src, tgt, 10);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_CandidateGeneration)->Arg(500)->Arg(2000);

void BM_StableMatching(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  Tensor scores = Tensor::RandomNormal({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    auto m = core::StableMatch(scores);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_StableMatching)->Arg(200)->Arg(800);

void BM_BenchmarkGeneration(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    datagen::GeneratorConfig cfg;
    cfg.num_matched = n;
    auto b = datagen::BenchmarkGenerator().Generate(cfg);
    benchmark::DoNotOptimize(b.ground_truth.data());
  }
}
BENCHMARK(BM_BenchmarkGeneration)->Arg(500)->Arg(2000);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults to machine-readable JSON output in
// the working directory (BENCH_kernels.json) when the caller didn't pass
// --benchmark_out themselves. CI archives that file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
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
