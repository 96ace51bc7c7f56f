#ifndef SDEA_EVAL_METRICS_H_
#define SDEA_EVAL_METRICS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "kg/types.h"
#include "tensor/tensor.h"

namespace sdea::eval {

// ---- Gold sentinel semantics -----------------------------------------------
// A gold vector entry is either a valid target row index (>= 0) or one of
// two *distinct* negative sentinels. Historically -1 meant "skip this
// query" everywhere, which made it impossible to represent the adversarial
// regime the critical-assessment papers study (entities with no counterpart
// at all). The two meanings are now separate:

/// gold[i] = kGoldSkip: source i is excluded from evaluation entirely
/// (not a query; contributes to no metric).
inline constexpr int64_t kGoldSkip = -1;

/// gold[i] = kGoldDangling: source i is a *query* whose true answer is
/// "no match" — the entity has no counterpart in the target KG. Ranking
/// metrics (Hits@k/MRR) skip it (there is no gold rank), but decision
/// metrics score it: the correct decision is to abstain.
inline constexpr int64_t kGoldDangling = -2;

/// The paper's evaluation metrics (Section V-A2): Hits@1, Hits@10, and mean
/// reciprocal rank, as percentages / [0,1] respectively.
struct RankingMetrics {
  double hits_at_1 = 0.0;   ///< Percent.
  double hits_at_10 = 0.0;  ///< Percent.
  double mrr = 0.0;         ///< [0, 1].
  int64_t num_queries = 0;
  /// Queries whose gold index was out of range for the target set (gold >=
  /// M, including every matchable query when M == 0). They contribute to no
  /// ranking metric — a degenerate input is reported, not crashed on.
  int64_t num_invalid = 0;
};

/// Decision-level quality of an alignment under the open-world (dangling)
/// regime: each source is either matched to a target (predicted[i] >= 0) or
/// abstained on (predicted[i] < 0), and the gold is a target index,
/// kGoldDangling, or kGoldSkip. This is the precision/recall/F1 view the
/// critical-assessment papers (arxiv 2010.16314, 2205.08777) argue must
/// accompany Hits@k once the 1-to-1 assumption breaks.
struct DecisionMetrics {
  // ---- Query population ----
  int64_t matchable = 0;  ///< Queries with a real counterpart (gold >= 0).
  int64_t dangling = 0;   ///< Queries with no counterpart (kGoldDangling).

  // ---- Outcome counts ----
  int64_t correct = 0;            ///< Matchable, predicted the gold target.
  int64_t mismatched = 0;         ///< Matchable, predicted a wrong target.
  int64_t missed = 0;             ///< Matchable, abstained (abstain-wrong).
  int64_t abstain_correct = 0;    ///< Dangling, abstained.
  int64_t forced_on_dangling = 0; ///< Dangling, but a target was predicted.

  // ---- Derived ----
  double precision = 0.0;  ///< correct / all predicted matches, [0,1].
  double recall = 0.0;     ///< correct / matchable, [0,1].
  double f1 = 0.0;         ///< Harmonic mean of the two, [0,1].
  /// Fraction of all queries (matchable + dangling) abstained on.
  double abstain_rate = 0.0;

  int64_t predicted_matches() const {
    return correct + mismatched + forced_on_dangling;
  }
  int64_t num_queries() const { return matchable + dangling; }
};

/// Scores a decision vector against dangling-aware gold. predicted[i] is a
/// target index or any negative value for "abstained / unmatched" (the
/// StableMatch -1 sentinel is accepted as-is); gold[i] is a target index,
/// kGoldDangling, or kGoldSkip. Out-of-range sizes are a caller bug
/// (checked); degenerate content (empty, all-skip) yields zeroed metrics.
DecisionMetrics EvaluateDecisions(const std::vector<int64_t>& predicted,
                                  const std::vector<int64_t>& gold);

/// Ranks every target row for each source row by cosine similarity and
/// scores against `gold` (gold[i] = index of the true target row for source
/// row i, or a negative sentinel — kGoldSkip and kGoldDangling both skip
/// the row for ranking purposes). `src` is [N, d], `tgt` is [M, d]; rows
/// need not be pre-normalized.
RankingMetrics EvaluateAlignment(const Tensor& src, const Tensor& tgt,
                                 const std::vector<int64_t>& gold);

/// The queries of a (source, target) entity pair list such as a seed
/// split: row i of the result is row pairs[i].first of `src`, and
/// (*gold)[i] = pairs[i].second.
Tensor GatherPairQueries(
    const Tensor& src,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs,
    std::vector<int64_t>* gold);

/// EvaluateAlignment of a pair list's queries (GatherPairQueries) against
/// every row of `tgt`.
RankingMetrics EvaluatePairs(
    const Tensor& src, const Tensor& tgt,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs);

/// As EvaluateAlignment but from a precomputed score matrix [N, M] where
/// higher means more similar. Degenerate inputs are well-defined instead of
/// fatal: gold[i] >= M (including any matchable gold when M == 0) counts
/// into num_invalid and contributes nothing else.
RankingMetrics EvaluateFromScores(const Tensor& scores,
                                  const std::vector<int64_t>& gold);

/// Per-degree-bucket metrics for the long-tail analysis (Section V-B2).
/// `bucket_upper` gives inclusive upper degree bounds (e.g. {3, 5, 10});
/// a final unbounded bucket is appended. `degrees[i]` is the relational
/// degree of source row i.
std::vector<RankingMetrics> EvaluateByDegree(
    const Tensor& src, const Tensor& tgt, const std::vector<int64_t>& gold,
    const std::vector<int64_t>& degrees,
    const std::vector<int64_t>& bucket_upper);

/// Rank of the gold target (1-based) for each source row under cosine
/// similarity; 0 where gold[i] is a negative sentinel, -1 where gold[i] is
/// out of range for the target set (degenerate input, reported not fatal).
std::vector<int64_t> GoldRanks(const Tensor& src, const Tensor& tgt,
                               const std::vector<int64_t>& gold);

}  // namespace sdea::eval

#endif  // SDEA_EVAL_METRICS_H_
