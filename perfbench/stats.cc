#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

namespace perfbench {
namespace {

// 1-based nearest rank of the q-percentile among n > 0 samples.
int64_t NearestRank(int64_t n, double q) {
  return std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)), 1,
      n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<int64_t>(samples.size());
  return samples[static_cast<size_t>(NearestRank(n, q) - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (double x : samples) total += x;
  return total / static_cast<double>(samples.size());
}

int64_t SamplesBeyond(int64_t n, double q) {
  return n <= 0 ? 0 : n - NearestRank(n, q);
}

std::map<std::string, double> SelfTimeByLayer(
    const std::vector<sdea::obs::TraceEvent>& events) {
  // Per thread, in start order (outer span first on equal starts).
  std::vector<const sdea::obs::TraceEvent*> order;
  order.reserve(events.size());
  for (const auto& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return std::tie(a->tid, a->start_us, a->depth) <
           std::tie(b->tid, b->start_us, b->depth);
  });

  struct Open {
    const sdea::obs::TraceEvent* event;
    int64_t child_us;
  };
  std::map<std::string, double> layers;
  auto close = [&layers](const Open& open) {
    const sdea::obs::TraceEvent& e = *open.event;
    layers[e.name.substr(0, e.name.find('/'))] +=
        static_cast<double>(std::max<int64_t>(0, e.dur_us - open.child_us)) *
        1e-6;
  };

  std::vector<Open> stack;
  for (size_t i = 0; i < order.size(); ++i) {
    const sdea::obs::TraceEvent& e = *order[i];
    if (i > 0 && order[i - 1]->tid != e.tid) {
      for (const Open& open : stack) close(open);
      stack.clear();
    }
    while (!stack.empty() &&
           (stack.back().event->depth >= e.depth ||
            stack.back().event->start_us + stack.back().event->dur_us <=
                e.start_us)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty() && stack.back().event->depth == e.depth - 1) {
      const sdea::obs::TraceEvent& parent = *stack.back().event;
      const int64_t end = std::min(e.start_us + e.dur_us,
                                   parent.start_us + parent.dur_us);
      stack.back().child_us += std::max<int64_t>(0, end - e.start_us);
    }
    stack.push_back(Open{&e, 0});
  }
  for (const Open& open : stack) close(open);
  return layers;
}

}  // namespace perfbench
