#include "eval/metrics.h"

#include "base/check.h"
#include "base/threadpool.h"
#include "obs/trace.h"

namespace sdea::eval {
namespace {

// Normalized copies so cosine similarity reduces to a dot product.
Tensor NormalizedCopy(const Tensor& m) {
  Tensor out = m;
  tmath::L2NormalizeRowsInPlace(&out);
  return out;
}

// Rank (1-based) of gold among all targets for one source row, computed by
// counting strictly-better scores (ties resolved pessimistically: equal
// scores ahead of gold count as better, so reported metrics never benefit
// from ties).
int64_t RankOfGold(const float* scores, int64_t m, int64_t gold) {
  const float gold_score = scores[gold];
  int64_t better = 0;
  for (int64_t j = 0; j < m; ++j) {
    if (j != gold && scores[j] >= gold_score) ++better;
  }
  return better + 1;
}

// Gold rank per query row (0 where gold[i] is a negative sentinel, -1
// where gold[i] >= m — a degenerate gold entry is reported, never fatal:
// one bad row in a sweep must not abort the whole harness), computed with
// one query per parallel-for index. Each query writes only its own slot
// and the O(m) rank scan is order-identical to the serial loop, so the
// result — and every reduction over it done serially afterwards — is
// bitwise-identical for any thread count.
std::vector<int64_t> RanksFromScores(const Tensor& scores,
                                     const std::vector<int64_t>& gold) {
  SDEA_CHECK_EQ(scores.rank(), 2);
  const int64_t n = scores.dim(0), m = scores.dim(1);
  SDEA_CHECK_EQ(static_cast<int64_t>(gold.size()), n);
  std::vector<int64_t> ranks(static_cast<size_t>(n), 0);
  base::ParallelFor(n, base::GrainForWork(n, m),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        const int64_t g = gold[static_cast<size_t>(i)];
                        if (g < 0) continue;
                        if (g >= m) {
                          ranks[static_cast<size_t>(i)] = -1;
                          continue;
                        }
                        ranks[static_cast<size_t>(i)] =
                            RankOfGold(scores.data() + i * m, m, g);
                      }
                    });
  return ranks;
}

}  // namespace

RankingMetrics EvaluateFromScores(const Tensor& scores,
                                  const std::vector<int64_t>& gold) {
  obs::TraceSpan span("eval/from_scores");
  const std::vector<int64_t> ranks = RanksFromScores(scores, gold);
  RankingMetrics out;
  double mrr_sum = 0.0;
  int64_t hit1 = 0, hit10 = 0;
  // Serial reduction in row order keeps the double sum deterministic.
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (gold[i] < 0) continue;
    const int64_t rank = ranks[i];
    if (rank < 0) {
      ++out.num_invalid;
      continue;
    }
    ++out.num_queries;
    if (rank <= 1) ++hit1;
    if (rank <= 10) ++hit10;
    mrr_sum += 1.0 / static_cast<double>(rank);
  }
  if (out.num_queries > 0) {
    out.hits_at_1 = 100.0 * hit1 / out.num_queries;
    out.hits_at_10 = 100.0 * hit10 / out.num_queries;
    out.mrr = mrr_sum / out.num_queries;
  }
  return out;
}

DecisionMetrics EvaluateDecisions(const std::vector<int64_t>& predicted,
                                  const std::vector<int64_t>& gold) {
  SDEA_CHECK_EQ(predicted.size(), gold.size());
  DecisionMetrics out;
  for (size_t i = 0; i < gold.size(); ++i) {
    const int64_t g = gold[i];
    const bool abstained = predicted[i] < 0;
    if (g >= 0) {
      ++out.matchable;
      if (abstained) {
        ++out.missed;
      } else if (predicted[i] == g) {
        ++out.correct;
      } else {
        ++out.mismatched;
      }
    } else if (g == kGoldDangling) {
      ++out.dangling;
      if (abstained) {
        ++out.abstain_correct;
      } else {
        ++out.forced_on_dangling;
      }
    }
    // kGoldSkip (and any other negative) contributes nothing.
  }
  const int64_t predicted_total = out.predicted_matches();
  if (predicted_total > 0) {
    out.precision =
        static_cast<double>(out.correct) / static_cast<double>(predicted_total);
  }
  if (out.matchable > 0) {
    out.recall =
        static_cast<double>(out.correct) / static_cast<double>(out.matchable);
  }
  if (out.precision + out.recall > 0.0) {
    out.f1 =
        2.0 * out.precision * out.recall / (out.precision + out.recall);
  }
  if (out.num_queries() > 0) {
    out.abstain_rate =
        static_cast<double>(out.missed + out.abstain_correct) /
        static_cast<double>(out.num_queries());
  }
  return out;
}

RankingMetrics EvaluateAlignment(const Tensor& src, const Tensor& tgt,
                                 const std::vector<int64_t>& gold) {
  obs::TraceSpan span("eval/alignment");
  const Tensor s = NormalizedCopy(src);
  const Tensor t = NormalizedCopy(tgt);
  return EvaluateFromScores(tmath::MatmulTransposeB(s, t), gold);
}

Tensor GatherPairQueries(
    const Tensor& src,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
    std::vector<int64_t>* gold) {
  Tensor rows({static_cast<int64_t>(pairs.size()), src.dim(1)});
  gold->clear();
  gold->reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    rows.SetRow(static_cast<int64_t>(i), src.Row(pairs[i].first));
    gold->push_back(pairs[i].second);
  }
  return rows;
}

RankingMetrics EvaluatePairs(
    const Tensor& src, const Tensor& tgt,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) {
  std::vector<int64_t> gold;
  const Tensor rows = GatherPairQueries(src, pairs, &gold);
  return EvaluateAlignment(rows, tgt, gold);
}

std::vector<int64_t> GoldRanks(const Tensor& src, const Tensor& tgt,
                               const std::vector<int64_t>& gold) {
  const Tensor s = NormalizedCopy(src);
  const Tensor t = NormalizedCopy(tgt);
  return RanksFromScores(tmath::MatmulTransposeB(s, t), gold);
}

std::vector<RankingMetrics> EvaluateByDegree(
    const Tensor& src, const Tensor& tgt, const std::vector<int64_t>& gold,
    const std::vector<int64_t>& degrees,
    const std::vector<int64_t>& bucket_upper) {
  SDEA_CHECK_EQ(gold.size(), degrees.size());
  const std::vector<int64_t> ranks = GoldRanks(src, tgt, gold);
  const size_t num_buckets = bucket_upper.size() + 1;
  std::vector<RankingMetrics> out(num_buckets);
  std::vector<double> mrr_sum(num_buckets, 0.0);
  std::vector<int64_t> hit1(num_buckets, 0), hit10(num_buckets, 0);
  for (size_t i = 0; i < gold.size(); ++i) {
    if (gold[i] < 0) continue;
    size_t b = bucket_upper.size();
    for (size_t k = 0; k < bucket_upper.size(); ++k) {
      if (degrees[i] <= bucket_upper[k]) {
        b = k;
        break;
      }
    }
    if (ranks[i] < 0) {
      ++out[b].num_invalid;
      continue;
    }
    ++out[b].num_queries;
    if (ranks[i] <= 1) ++hit1[b];
    if (ranks[i] <= 10) ++hit10[b];
    mrr_sum[b] += 1.0 / static_cast<double>(ranks[i]);
  }
  for (size_t b = 0; b < num_buckets; ++b) {
    if (out[b].num_queries == 0) continue;
    out[b].hits_at_1 = 100.0 * hit1[b] / out[b].num_queries;
    out[b].hits_at_10 = 100.0 * hit10[b] / out[b].num_queries;
    out[b].mrr = mrr_sum[b] / out[b].num_queries;
  }
  return out;
}

}  // namespace sdea::eval
