#ifndef SDEA_BENCH_BENCH_META_H_
#define SDEA_BENCH_BENCH_META_H_

#include <benchmark/benchmark.h>

#include <string>

#include "base/threadpool.h"
#include "tensor/kernels.h"

namespace sdea::bench {

/// Stamps the kernel configuration the numbers were taken under into the
/// google-benchmark JSON "context" block, so an archived BENCH_*.json is
/// self-describing: two files are only comparable when these keys agree.
inline void AddKernelContext() {
  benchmark::AddCustomContext(
      "sdea_simd_level", tmath::SimdLevelName(tmath::ActiveSimdLevel()));
  benchmark::AddCustomContext("sdea_avx2_supported",
                              tmath::Avx2Supported() ? "true" : "false");
  benchmark::AddCustomContext(
      "sdea_threads",
      std::to_string(base::ThreadPool::DefaultNumThreads()));
}

}  // namespace sdea::bench

#endif  // SDEA_BENCH_BENCH_META_H_
