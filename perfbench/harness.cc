#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <thread>

#include "stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The steady-clock instant of trace time 0, so a trace-clock due time can
// be waited for.
Clock::time_point TraceZero() {
  static const Clock::time_point zero =
      Clock::now() - std::chrono::microseconds(sdea::obs::TraceNowMicros());
  return zero;
}

// JSON string escaping for the few characters a context value can hold.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// All significant digits: runs are compared on raw measurements.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back(Metric{name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back(Metric{name, value, unit});
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::Phase(const std::string& name, int64_t sent, int64_t failed) {
  phases_.push_back(PhaseCount{name, sent, failed});
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

void Report::Print(bool trace) const {
  std::string context = "{";
  for (size_t i = 0; i < context_.size(); ++i) {
    context += (i ? ", " : "") + Quote(context_[i].first) + ": " +
               Quote(context_[i].second);
  }
  std::printf("context %s}\n", context.c_str());

  int64_t attempted = 0, failed = 0;
  std::printf("%-28s %10s %10s %10s\n", "phase", "sent", "succeeded",
              "failed");
  for (const PhaseCount& p : phases_) {
    std::printf("%-28s %10" PRId64 " %10" PRId64 " %10" PRId64 "\n",
                p.name.c_str(), p.sent, p.sent - p.failed, p.failed);
    attempted += p.sent;
    failed += p.failed;
  }
  for (const std::string& why : failures_) {
    std::printf("GATE FAILED: %s\n", why.c_str());
  }

  const std::vector<Metric>& metrics = trace ? layer_ : end_to_end_;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " +
            Number(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int64_t NowUs() { return sdea::obs::TraceNowMicros(); }

double PreciseNowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - TraceZero())
      .count();
}

std::vector<RequestRecord> RunOpenLoop(double rate_qps, int64_t count,
                                       const SubmitFn& submit,
                                       const std::atomic<bool>* stop) {
  std::vector<RequestRecord> records;
  if (count > 0) records.reserve(static_cast<size_t>(count));
  struct Pending {
    size_t index;
    std::future<sdea::serve::AlignResult> answer;
  };
  std::deque<Pending> pending;
  // Request latency counts from the due time, so the generator's own
  // wake-up lateness is part of every sample: wake within 1 us of the
  // deadline instead of the default 50 us timer slack (restored on exit).
  const int slack_ns = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
  auto collect_front = [&] {
    Pending& front = pending.front();
    const bool ok = front.answer.get().ok();
    RequestRecord& r = records[front.index];
    r.done_us = PreciseNowUs();
    r.ok = ok;
    pending.pop_front();
  };

  const double start_us = PreciseNowUs() + 1000.0;
  const double interval_us = 1e6 / rate_qps;
  for (int64_t i = 0;; ++i) {
    if (count >= 0 && i >= count) break;
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const double due_us = start_us + interval_us * static_cast<double>(i);
    const Clock::time_point due_at =
        TraceZero() + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::micro>(due_us));
    // Stamp answers as they arrive until this request is due.
    while (!pending.empty() && pending.front().answer.wait_until(due_at) ==
                                   std::future_status::ready) {
      collect_front();
    }
    std::this_thread::sleep_until(due_at);
    RequestRecord r;
    r.due_us = due_us;
    r.sent_us = PreciseNowUs();
    records.push_back(r);
    pending.push_back(Pending{records.size() - 1, submit(i)});
  }
  while (!pending.empty()) {
    pending.front().answer.wait();
    collect_front();
  }
  if (slack_ns > 0) prctl(PR_SET_TIMERSLACK, slack_ns, 0, 0, 0);
  return records;
}

std::vector<double> LatenciesMs(const std::vector<RequestRecord>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) {
    out.push_back((r.done_us - r.due_us) / 1000.0);
  }
  return out;
}

std::vector<double> LagsMs(const std::vector<RequestRecord>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) {
    out.push_back((r.sent_us - r.due_us) / 1000.0);
  }
  return out;
}

int64_t CountFailed(const std::vector<RequestRecord>& records) {
  return std::count_if(records.begin(), records.end(),
                       [](const RequestRecord& r) { return !r.ok; });
}

double MedianWaitMs(const std::vector<RequestRecord>& records,
                    const std::vector<sdea::obs::TraceEvent>& events) {
  std::vector<int64_t> starts;
  for (const auto& e : events) {
    if (e.name == "serve/batch") starts.push_back(e.start_us);
  }
  std::sort(starts.begin(), starts.end());
  std::vector<double> waits;
  for (const RequestRecord& r : records) {
    // Span starts are whole microseconds.
    auto it = std::lower_bound(starts.begin(), starts.end(),
                               static_cast<int64_t>(std::floor(r.sent_us)));
    if (it == starts.end()) continue;
    waits.push_back((static_cast<double>(*it) - r.due_us) / 1000.0);
  }
  return Median(waits);
}

std::vector<sdea::serve::Neighbor> ServedForm(
    std::vector<sdea::serve::Neighbor> direct,
    const sdea::eval::AbstainThreshold& rule) {
  direct.erase(std::remove_if(direct.begin(), direct.end(),
                              [](const sdea::serve::Neighbor& nb) {
                                return !std::isfinite(nb.similarity);
                              }),
               direct.end());
  if (rule.enabled && !direct.empty()) {
    const float top1 = direct.front().similarity;
    const float margin = direct.size() > 1
                             ? top1 - direct[1].similarity
                             : std::numeric_limits<float>::infinity();
    if (!rule.Accepts(top1, margin)) direct.clear();
  }
  return direct;
}

double Recall(const std::vector<sdea::serve::Neighbor>& truth,
              const std::vector<sdea::serve::Neighbor>& answer) {
  if (truth.empty()) return 0.0;
  int64_t found = 0;
  for (const auto& a : truth) {
    for (const auto& b : answer) found += a.id == b.id;
  }
  return static_cast<double>(found) / static_cast<double>(truth.size());
}

bool SameAnswer(const std::vector<sdea::serve::Neighbor>& a,
                const std::vector<sdea::serve::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].similarity, &b[i].similarity, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::vector<double> SpanDurationsMs(
    const std::vector<sdea::obs::TraceEvent>& events, const std::string& name,
    int64_t begin_us, int64_t end_us) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.name == name && e.start_us >= begin_us && e.start_us <= end_us) {
      out.push_back(static_cast<double>(e.dur_us) / 1000.0);
    }
  }
  return out;
}

void ReportTrace(const std::vector<sdea::obs::TraceEvent>& events,
                 double overhead_pct, Report* report) {
  // Serving is the one layer every workload runs, and every traced run
  // must report the same metrics.
  const std::map<std::string, double> self = SelfTimeByLayer(events);
  const auto serve = self.find("serve");
  report->Gate(serve != self.end(), "the trace holds no serve spans");
  report->Layer("self.serve_s", serve == self.end() ? 0.0 : serve->second,
                "s");
  const uint64_t dropped = sdea::obs::TraceBuffer::Default()->dropped();
  report->Gate(dropped == 0, "trace buffer dropped " +
                                 std::to_string(dropped) + " spans");
  report->Layer("trace.spans", static_cast<double>(events.size()), "count");
  report->Layer("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace perfbench
