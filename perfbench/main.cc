// The repository benchmark's main program. One process runs one
// workload:
//
//   perfbench --workload <align_batch|serve_quantized|stream_incr>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// It prints the run context, requests per phase, any failed correctness
// gate and the metrics, then one JSON result line. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics from a
// traced pass. Exits 1 when a correctness gate failed.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "base/threadpool.h"
#include "harness.h"
#include "tensor/kernels.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<align_batch|serve_quantized|stream_incr> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

// The pinned global pool size per workload. The pool's size counts the
// thread that calls ParallelFor; with the workload's own threads it stays
// within the machine's cores. serve_quantized runs the dispatcher (the
// pool's calling thread), one worker and the load thread, leaving a core
// free: with every core busy, host scheduling delays landed on the
// dispatcher and a sustained-rate probe moved twice as much between runs.
// stream_incr runs the writer, the load thread, the dispatcher and one
// worker, which the writer's ParallelFor calls share with the reads.
int PoolSize(const std::string& workload, int cores) {
  if (workload == "serve_quantized") return std::clamp(cores - 2, 1, 2);
  if (workload == "stream_incr") return std::clamp(cores - 2, 1, 2);
  return std::clamp(cores, 1, 4);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_seed || options.seconds < 1 || options.work_dir.empty()) {
    return Usage("--seed, --seconds >= 1 and --work-dir are required");
  }
  void (*run)(const RunOptions&, Report*) = nullptr;
  if (options.workload == "align_batch") run = perfbench::RunAlignBatch;
  if (options.workload == "serve_quantized") {
    run = perfbench::RunServeQuantized;
  }
  if (options.workload == "stream_incr") run = perfbench::RunStreamIncr;
  if (run == nullptr) return Usage("unknown workload");

  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int pool = PoolSize(options.workload, cores);
  sdea::base::ThreadPool::SetGlobalNumThreads(pool);

  options.work_dir += "/" + options.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  Report report;
  report.Context("workload", options.workload);
  report.Context("seed", std::to_string(options.seed));
  report.Context("trace", options.trace ? "1" : "0");
  report.Context("sdea_kernel_mode", sdea::tmath::KernelModeName(
                                         sdea::tmath::ActiveKernelMode()));
  report.Context("sdea_simd_level", sdea::tmath::SimdLevelName(
                                        sdea::tmath::ActiveSimdLevel()));
  report.Context("sdea_avx2_supported",
                 sdea::tmath::Avx2Supported() ? "true" : "false");
  report.Context("sdea_threads", std::to_string(pool));
  report.Context("nproc", std::to_string(cores));

  run(options, &report);
  std::filesystem::remove_all(options.work_dir);
  report.Print(options.trace);
  return report.correct() ? 0 : 1;
}
