#include "core/candidate_generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "tensor/kernels.h"
#include "tensor/topk.h"

namespace sdea::core {
namespace {

TEST(CandidatesTest, TopOneIsNearestByCosine) {
  Tensor src({2, 2}, {1, 0, 0, 1});
  Tensor tgt({3, 2}, {0, 2, 3, 0.1f, 5, 5});
  const auto c = GenerateCandidates(src, tgt, 1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0][0], 1);  // (3, 0.1) is most aligned with (1, 0).
  EXPECT_EQ(c[1][0], 0);  // (0, 2) with (0, 1).
}

TEST(CandidatesTest, KCappedByTargets) {
  Tensor src({1, 2}, {1, 0});
  Tensor tgt({3, 2}, {1, 0, 0, 1, -1, 0});
  const auto c = GenerateCandidates(src, tgt, 10);
  EXPECT_EQ(c[0].size(), 3u);
}

TEST(CandidatesTest, CandidatesAreDistinctAndOrdered) {
  Rng rng(3);
  Tensor src = Tensor::RandomNormal({5, 8}, 1.0f, &rng);
  Tensor tgt = Tensor::RandomNormal({40, 8}, 1.0f, &rng);
  const auto c = GenerateCandidates(src, tgt, 10);
  Tensor s = src, t = tgt;
  tmath::L2NormalizeRowsInPlace(&s);
  tmath::L2NormalizeRowsInPlace(&t);
  for (size_t i = 0; i < c.size(); ++i) {
    std::set<int64_t> distinct(c[i].begin(), c[i].end());
    EXPECT_EQ(distinct.size(), c[i].size());
    for (size_t k = 1; k < c[i].size(); ++k) {
      const float prev = tmath::Dot(s.Row(static_cast<int64_t>(i)),
                                    t.Row(c[i][k - 1]));
      const float cur = tmath::Dot(s.Row(static_cast<int64_t>(i)),
                                   t.Row(c[i][k]));
      EXPECT_GE(prev, cur - 1e-6f);
    }
  }
}

TEST(CandidatesTest, ExhaustiveTopKMatchesBruteForce) {
  Rng rng(9);
  Tensor src = Tensor::RandomNormal({3, 4}, 1.0f, &rng);
  Tensor tgt = Tensor::RandomNormal({20, 4}, 1.0f, &rng);
  const auto c = GenerateCandidates(src, tgt, 5);
  Tensor s = src, t = tgt;
  tmath::L2NormalizeRowsInPlace(&s);
  tmath::L2NormalizeRowsInPlace(&t);
  for (int64_t i = 0; i < 3; ++i) {
    // Brute-force the best target.
    int64_t best = 0;
    float best_score = -2.0f;
    for (int64_t j = 0; j < 20; ++j) {
      const float sc = tmath::Dot(s.Row(i), t.Row(j));
      if (sc > best_score) {
        best_score = sc;
        best = j;
      }
    }
    EXPECT_EQ(c[static_cast<size_t>(i)][0], best);
  }
}

TEST(CandidatesTest, NearTieRankingMatchesScoreDotContract) {
  // Regression for the accumulation bug: the old loop multiplied
  // float*float (rounding each product to a float) before widening to
  // double. On these rows — a huge cancelling ±471.8 pair plus ulp-level
  // jitter, found by exhaustive search — that per-product rounding
  // collapses the true ordering of rows 2 and 3 into an exact tie, so the
  // old code returned [... 2, 3 ...] where the exact contract (widen each
  // operand to double BEFORE multiplying, the same arithmetic as the
  // pipeline's MatmulTransposeB score matrix) demands [... 3, 2 ...].
  const float big = 0x1.d7ca34p+8f;  // ~471.79, product with src inexact.
  const auto up = [](float v, int n) {
    for (int i = 0; i < n; ++i) v = std::nextafterf(v, 1e9f);
    return v;
  };
  Tensor src({1, 4},
             {0x1.120b1ap+0f, 0x1.d9b2bcp-1f, 0x1.170902p+0f,
              0x1.e7274ap-1f});
  Tensor tgt({6, 4});
  const float z = 0.25f;
  tgt.SetRow(0, Tensor::FromVector({big, -big, up(z, 1), 0.75f}));
  tgt.SetRow(1, Tensor::FromVector({big, -big, z, 0.75f}));
  tgt.SetRow(2, Tensor::FromVector({up(big, 2), -big, up(z, 3), 0.75f}));
  tgt.SetRow(3, Tensor::FromVector({up(big, 1), -big, up(z, 3), 0.75f}));
  tgt.SetRow(4, Tensor::FromVector({big, -big, up(z, 3), 0.75f}));
  tgt.SetRow(5, Tensor::FromVector({big, -big, up(z, 3), 0.75f}));
  const auto c = GenerateCandidates(src, tgt, 6);
  ASSERT_EQ(c.size(), 1u);

  // Reference: same normalization, scored per pair through
  // kernels::ScoreDot (per-element double accumulation, pinned bitwise by
  // the kernels tests), ranked by the same TopK total order.
  Tensor s = src, t = tgt;
  tmath::L2NormalizeRowsInPlace(&s);
  tmath::L2NormalizeRowsInPlace(&t);
  std::vector<float> scores(6);
  for (int64_t j = 0; j < 6; ++j) {
    scores[static_cast<size_t>(j)] =
        tmath::kernels::ScoreDot(s.data(), t.data() + j * 4, 4);
  }
  EXPECT_EQ(c[0], tmath::TopK(scores.data(), 6, 6));
  // The construction really is adversarial: row 3 must strictly outrank
  // row 2 — exactly what float-product rounding erased.
  EXPECT_EQ(c[0][0], 3);
  EXPECT_EQ(c[0][1], 2);
  EXPECT_GT(scores[3], scores[2]);
}

}  // namespace
}  // namespace sdea::core
