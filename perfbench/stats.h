#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Pure statistics behind the benchmark's reported numbers: percentiles
// with their sample-count rule and per-layer self time from recorded
// spans. Kept free of timing and threads so perfbench_test can pin each
// rule exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// beyond it; fewer makes the tail a handful of outliers.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile, q in (0, 1]: the sample at 1-based rank
/// ceil(q * n) of the sorted samples. 0 for an empty input.
double Percentile(std::vector<double> samples, double q);

/// The middle sample, or the mean of the two middle ones. 0 when empty.
double Median(std::vector<double> samples);

/// The arithmetic mean; 0 when empty. For whole-microsecond span
/// durations, whose median repeats exactly from run to run.
double Mean(const std::vector<double>& samples);

/// Samples strictly above the nearest-rank q-percentile's rank:
/// n - ceil(q * n).
int64_t SamplesBeyond(int64_t n, double q);

/// Self time in seconds per layer, where a span's layer is its name up to
/// the first '/' ("serve/batch" -> "serve"). A span's children are the
/// spans one level deeper on the same thread that start inside it; spans
/// on one thread nest, so its self time is its duration minus its
/// children's (clipped to it).
std::map<std::string, double> SelfTimeByLayer(
    const std::vector<sdea::obs::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
