#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// What every workload shares: run options, the result report and its
// JSON line, the open-loop load generator, process CPU/RSS probes and
// trace-span lookups.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "eval/abstention.h"
#include "obs/trace.h"
#include "serve/batcher.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout for snapshot and log files.
  std::string work_dir;
};

/// Collects one run's results. End-to-end metrics are printed by untraced
/// runs, per-layer metrics by traced runs; a failed correctness gate marks
/// the run incorrect (and main exits non-zero).
class Report {
 public:
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Context(const std::string& key, const std::string& value);
  /// Requests sent in one phase; failures count against `attempted`.
  void Phase(const std::string& name, int64_t sent, int64_t failed);
  /// Records a failed correctness gate.
  void Fail(const std::string& why);
  /// Checks `ok`, recording `why` when it does not hold.
  void Gate(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }

  bool correct() const { return failures_.empty(); }

  /// Human-readable lines (context, phases, gates, metrics) followed by
  /// the one-line JSON result, which is always the last line.
  void Print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, std::string>> context_;
  struct PhaseCount {
    std::string name;
    int64_t sent;
    int64_t failed;
  };
  std::vector<PhaseCount> phases_;
  std::vector<std::string> failures_;
};

/// Microseconds on the obs trace clock, so load records and spans share
/// one timeline.
int64_t NowUs();
/// The same clock with sub-microsecond resolution: a median of whole
/// microseconds repeats exactly from run to run.
double PreciseNowUs();

/// One open-loop request: when it was due, sent and answered (trace
/// clock, microseconds), and whether the answer was OK.
struct RequestRecord {
  double due_us = 0.0;
  double sent_us = 0.0;
  double done_us = 0.0;
  bool ok = false;
};

using SubmitFn =
    std::function<std::future<sdea::serve::AlignResult>(int64_t index)>;

/// Sends request i at start + i / rate_qps from the calling thread,
/// whether or not earlier requests were answered (an open loop), and
/// stamps each answer as it arrives: while waiting for the next due time
/// the same thread waits on the oldest outstanding answer, so generator
/// and collector need only one thread. Stops sending after `count`
/// requests (count < 0: until `*stop` is set) and returns once every sent
/// request is answered. Evenly spaced arrivals keep the median a service
/// time: with Poisson arrivals at the same rate it took queueing delay
/// that grew with host slowdowns, and moved a third between runs.
std::vector<RequestRecord> RunOpenLoop(double rate_qps, int64_t count,
                                       const SubmitFn& submit,
                                       const std::atomic<bool>* stop = nullptr);

/// Latency from due time to answer, in ms.
std::vector<double> LatenciesMs(const std::vector<RequestRecord>& records);
/// How late the generator sent each request, in ms.
std::vector<double> LagsMs(const std::vector<RequestRecord>& records);
int64_t CountFailed(const std::vector<RequestRecord>& records);
/// Median time from each request's due time to the start of the batch
/// that answered it: the first `serve/batch` span starting at or after
/// the request was sent.
double MedianWaitMs(const std::vector<RequestRecord>& records,
                    const std::vector<sdea::obs::TraceEvent>& events);

/// What AlignmentServer serves for a direct store answer: non-finite
/// scores dropped, then the whole answer withheld when `rule` rejects its
/// top-1 score or top1-top2 margin.
std::vector<sdea::serve::Neighbor> ServedForm(
    std::vector<sdea::serve::Neighbor> direct,
    const sdea::eval::AbstainThreshold& rule);

/// Share of `truth`'s ids that `answer` also holds; 0 when `truth` is
/// empty.
double Recall(const std::vector<sdea::serve::Neighbor>& truth,
              const std::vector<sdea::serve::Neighbor>& answer);

/// Same ids and bitwise-same scores, in the same order.
bool SameAnswer(const std::vector<sdea::serve::Neighbor>& a,
                const std::vector<sdea::serve::Neighbor>& b);

/// Process CPU time (user + system), seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process, MB.
double PeakRssMb();
double NowSeconds();

/// Durations (ms) of the recorded spans named `name` that start within
/// [begin_us, end_us].
std::vector<double> SpanDurationsMs(
    const std::vector<sdea::obs::TraceEvent>& events, const std::string& name,
    int64_t begin_us = 0, int64_t end_us = INT64_MAX);

/// Reports the serve layer's self time, the recorded span count, dropped
/// spans (a gate: the trace must be complete) and the tracing overhead.
void ReportTrace(const std::vector<sdea::obs::TraceEvent>& events,
                 double overhead_pct, Report* report);

/// A scoped wall-clock timer: adds elapsed seconds to `*sink` on exit.
class Stopwatch {
 public:
  explicit Stopwatch(double* sink) : sink_(sink), start_(NowSeconds()) {}
  ~Stopwatch() { *sink_ += NowSeconds() - start_; }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double* sink_;
  double start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
