#include "eval/abstention.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "base/strings.h"

namespace sdea::eval {
namespace {

// One dev row reduced to what the sweep needs: the best score, the gap to
// the runner-up, and which decision outcome accepting it would produce.
struct DevRow {
  float top1 = 0.0f;
  float margin = 0.0f;
  double weight = 1.0;    // Importance weight (dangling_prior reweighting).
  bool finite = false;    // NaN top1 rows abstain under any enabled rule.
  bool correct = false;   // Matchable and argmax == gold.
  bool dangling = false;  // kGoldDangling row.
};

// F1 of the greedy dev decisions when exactly the rows in `accepted` are
// matched (all others abstain). Arguments are (possibly weighted) masses.
double F1OfCounts(double tp, double predicted, double matchable) {
  if (predicted <= 0.0 || matchable <= 0.0) return 0.0;
  const double precision = tp / predicted;
  const double recall = tp / matchable;
  if (precision + recall <= 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

// Sweeps one scalar key (top1 score or margin) over its observed values:
// rows are accepted while key >= threshold, so sorting by the key
// descending and cutting at every distinct-value boundary enumerates every
// distinct decision rule the key can induce. Returns the best (threshold,
// f1); ties prefer the laxer threshold (the longer accepted prefix).
struct SweepResult {
  float threshold = -std::numeric_limits<float>::infinity();
  double f1 = 0.0;
};

template <typename KeyFn>
SweepResult SweepKey(const std::vector<DevRow>& rows, double matchable,
                     KeyFn key) {
  std::vector<size_t> order;
  order.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].finite) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const float ka = key(rows[a]), kb = key(rows[b]);
    if (ka != kb) return ka > kb;
    return a < b;
  });
  SweepResult best;  // Start from "accept nothing": f1 = 0.
  best.threshold = std::numeric_limits<float>::infinity();
  double tp = 0.0, predicted = 0.0;
  for (size_t i = 0; i < order.size(); ++i) {
    const DevRow& r = rows[order[i]];
    predicted += r.weight;
    if (r.correct) tp += r.weight;
    // Only cut at distinct-value boundaries: a threshold equal to this key
    // accepts every row tied with it.
    if (i + 1 < order.size() && key(rows[order[i + 1]]) == key(r)) continue;
    const double f1 = F1OfCounts(tp, predicted, matchable);
    if (f1 > best.f1 ||
        (f1 == best.f1 && key(r) < best.threshold)) {
      best.f1 = f1;
      best.threshold = key(r);
    }
  }
  return best;
}

}  // namespace

std::string AbstainThreshold::DebugString() const {
  if (!enabled) return "AbstainThreshold{disabled}";
  return StrFormat("AbstainThreshold{min_similarity=%.4f, min_margin=%.4f, "
                   "dev_f1=%.4f}",
                   min_similarity, min_margin, dev_f1);
}

AbstainThreshold CalibrateAbstainThreshold(const Tensor& dev_scores,
                                           const std::vector<int64_t>& dev_gold,
                                           const CalibrationOptions& options) {
  SDEA_CHECK_EQ(dev_scores.rank(), 2);
  const int64_t n = dev_scores.dim(0), m = dev_scores.dim(1);
  SDEA_CHECK_EQ(static_cast<int64_t>(dev_gold.size()), n);

  AbstainThreshold out;
  if (n == 0 || m == 0) return out;  // Nothing to calibrate on.

  std::vector<DevRow> rows;
  rows.reserve(static_cast<size_t>(n));
  int64_t matchable = 0, dangling = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = dev_gold[static_cast<size_t>(i)];
    if (g == kGoldSkip || g >= m) continue;  // Skip / degenerate gold.
    const float* row = dev_scores.data() + i * m;
    const int64_t arg = tmath::ArgMaxRow(row, m);
    float top2 = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < m; ++j) {
      if (j != arg && row[j] > top2) top2 = row[j];
    }
    DevRow r;
    r.top1 = row[arg];
    r.finite = std::isfinite(r.top1);
    // A one-column row has no runner-up; its margin never constrains.
    r.margin = (m > 1 && r.finite)
                   ? r.top1 - top2
                   : std::numeric_limits<float>::infinity();
    r.dangling = (g == kGoldDangling);
    r.correct = !r.dangling && arg == g;
    if (r.dangling) {
      ++dangling;
    } else {
      ++matchable;
    }
    rows.push_back(r);
  }
  if (rows.empty() || matchable == 0) return out;

  if (dangling == 0) {
    // No labeled dangling dev sources: F1 cannot see the cost of forced
    // matches on dangling queries, so instead of the sweep we place the
    // floor at the score quantile keeping `fallback_keep_fraction` of the
    // correctly ranked dev matches.
    std::vector<float> correct_scores;
    for (const DevRow& r : rows) {
      if (r.correct && r.finite) correct_scores.push_back(r.top1);
    }
    if (correct_scores.empty()) return out;
    std::sort(correct_scores.begin(), correct_scores.end());
    const double drop =
        std::clamp(1.0 - options.fallback_keep_fraction, 0.0, 1.0);
    size_t idx = static_cast<size_t>(drop * (correct_scores.size() - 1));
    out.min_similarity = correct_scores[idx];
    out.min_margin = 0.0f;
    out.enabled = true;
    double tp = 0.0, predicted = 0.0;
    for (const DevRow& r : rows) {
      if (!out.Accepts(r.top1, r.margin)) continue;
      predicted += 1.0;
      if (r.correct) tp += 1.0;
    }
    out.dev_f1 = F1OfCounts(tp, predicted, static_cast<double>(matchable));
    return out;
  }

  // Reweight the dev rows to the deployment class balance when the caller
  // declared one: each class's rows share its prior mass equally, so a
  // dangling-heavy dev no longer drags the sweep toward thresholds that
  // would gut recall on matchable-heavy traffic.
  double matchable_mass = static_cast<double>(matchable);
  if (options.dangling_prior >= 0.0) {
    const double p = std::min(options.dangling_prior, 1.0);
    const double w_match = (1.0 - p) / static_cast<double>(matchable);
    const double w_dangle = p / static_cast<double>(dangling);
    for (DevRow& r : rows) r.weight = r.dangling ? w_dangle : w_match;
    matchable_mass = 1.0 - p;
  }

  const SweepResult by_score =
      SweepKey(rows, matchable_mass, [](const DevRow& r) { return r.top1; });
  const SweepResult by_margin =
      SweepKey(rows, matchable_mass, [](const DevRow& r) { return r.margin; });

  out.enabled = true;
  if (by_margin.f1 > by_score.f1) {
    out.min_margin = by_margin.threshold;
    out.dev_f1 = by_margin.f1;
  } else {
    out.min_similarity = by_score.threshold;
    out.dev_f1 = by_score.f1;
  }
  return out;
}

int64_t ApplyAbstainThreshold(const Tensor& scores,
                              const AbstainThreshold& threshold,
                              std::vector<int64_t>* match) {
  if (!threshold.enabled) return 0;
  SDEA_CHECK_EQ(scores.rank(), 2);
  const int64_t n = scores.dim(0), m = scores.dim(1);
  SDEA_CHECK_EQ(static_cast<int64_t>(match->size()), n);
  int64_t abstained = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t j = (*match)[static_cast<size_t>(i)];
    if (j < 0) continue;
    SDEA_CHECK_LT(j, m);
    const float* row = scores.data() + i * m;
    const float score = row[j];
    float best_other = -std::numeric_limits<float>::infinity();
    for (int64_t k = 0; k < m; ++k) {
      if (k != j && row[k] > best_other) best_other = row[k];
    }
    // With no competitor the margin criterion never constrains. A stable-
    // matching assignment need not be the row argmax, so the margin can be
    // negative — the calibrated margin rule then rejects it.
    const float margin = (m > 1) ? score - best_other
                                 : std::numeric_limits<float>::infinity();
    if (!threshold.Accepts(score, margin)) {
      (*match)[static_cast<size_t>(i)] = -1;
      ++abstained;
    }
  }
  return abstained;
}

}  // namespace sdea::eval
