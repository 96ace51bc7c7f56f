// Property tests for tmath::TopK (radix select): on every input — including
// the adversarial float zoo of ties, ±0.0, NaN/Inf, and denormals — it must
// return exactly what std::partial_sort returns under the documented total
// order (score desc, NaN below -inf, -0.0 == +0.0, ties by ascending
// index / tie id).
#include "tensor/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "base/rng.h"
#include "tensor/kernels.h"
#include "testing/kernel_config.h"

namespace sdea {
namespace {

// True when x ranks strictly above y under the documented score order
// (independent of index). Written in the float domain — deliberately NOT
// via the radix key transform — so the test checks the implementation
// against the contract, not against itself.
bool RanksAbove(float x, float y) {
  const bool xn = std::isnan(x), yn = std::isnan(y);
  if (xn || yn) return !xn && yn;  // Any real value outranks any NaN.
  if (x != y) return x > y;        // Note: -0.0 == +0.0 here.
  return false;
}

// Reference top-k: partial_sort over the same total order. Unlike the raw
// float comparator the call sites used to hand-roll, this one is a valid
// strict weak ordering even with NaNs present, so partial_sort's result is
// fully defined and unique.
std::vector<int64_t> ReferenceTopK(const std::vector<float>& scores,
                                   int64_t k,
                                   const std::vector<int64_t>* tie_ids) {
  const int64_t m = static_cast<int64_t>(scores.size());
  if (k <= 0 || m == 0) return {};
  const int64_t kk = std::min(k, m);
  const auto tie = [&](int64_t pos) {
    return tie_ids != nullptr ? (*tie_ids)[static_cast<size_t>(pos)] : pos;
  };
  std::vector<int64_t> order(static_cast<size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(
      order.begin(), order.begin() + kk, order.end(),
      [&](int64_t a, int64_t b) {
        const float sa = scores[static_cast<size_t>(a)];
        const float sb = scores[static_cast<size_t>(b)];
        if (RanksAbove(sa, sb)) return true;
        if (RanksAbove(sb, sa)) return false;
        return tie(a) < tie(b);
      });
  order.resize(static_cast<size_t>(kk));
  return order;
}

void ExpectMatchesReference(const std::vector<float>& scores, int64_t k,
                            const std::vector<int64_t>* tie_ids = nullptr) {
  const std::vector<int64_t> expected = ReferenceTopK(scores, k, tie_ids);
  const std::vector<int64_t> got =
      tie_ids == nullptr
          ? tmath::TopK(scores, k)
          : tmath::TopKWithTieIds(scores.data(),
                                  static_cast<int64_t>(scores.size()), k,
                                  tie_ids->data());
  EXPECT_EQ(got, expected) << "m=" << scores.size() << " k=" << k;
}

// Adversarial value pool: every equivalence-class edge the total order has.
float AdversarialValue(Rng* rng) {
  static const float kZoo[] = {
      0.0f,
      -0.0f,
      1.0f,
      -1.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min() / 2,  // Denormal.
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
      std::nextafterf(1.0f, 2.0f),  // 1.0 + 1 ulp.
      0.5f,
      0.5f,  // Doubled weight: plenty of exact ties.
  };
  return kZoo[rng->UniformInt(sizeof(kZoo) / sizeof(kZoo[0]))];
}

TEST(TopKTest, EmptyAndDegenerateK) {
  EXPECT_TRUE(tmath::TopK(nullptr, 0, 5).empty());
  const std::vector<float> scores = {3.0f, 1.0f, 2.0f};
  EXPECT_TRUE(tmath::TopK(scores, 0).empty());
  EXPECT_TRUE(tmath::TopK(scores, -4).empty());
  // k == m and k > m both return the full ranking.
  const std::vector<int64_t> want = {0, 2, 1};
  EXPECT_EQ(tmath::TopK(scores, 3), want);
  EXPECT_EQ(tmath::TopK(scores, 4), want);
  EXPECT_EQ(tmath::TopK(scores, 1), (std::vector<int64_t>{0}));
}

TEST(TopKTest, TiesBreakByAscendingIndex) {
  const std::vector<float> scores = {2.0f, 5.0f, 5.0f, 2.0f, 5.0f};
  const std::vector<int64_t> want = {1, 2, 4, 0};
  EXPECT_EQ(tmath::TopK(scores, 4), want);
}

TEST(TopKTest, SignedZerosAreEqual) {
  // -0.0 and +0.0 tie, so index order decides — exactly like the float
  // comparator (where -0.0f != 0.0f is false).
  const std::vector<float> scores = {-0.0f, 1.0f, 0.0f, -0.0f};
  const std::vector<int64_t> want = {1, 0, 2, 3};
  EXPECT_EQ(tmath::TopK(scores, 4), want);
}

TEST(TopKTest, NanRanksBelowNegativeInfinity) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> scores = {nan, -inf, inf, -nan, 0.0f};
  // inf > 0 > -inf > both NaNs (which tie and fall back to index order).
  const std::vector<int64_t> want = {2, 4, 1, 0, 3};
  EXPECT_EQ(tmath::TopK(scores, 5), want);
  // A NaN never displaces a real score from the top k.
  EXPECT_EQ(tmath::TopK(scores, 3), (std::vector<int64_t>{2, 4, 1}));
}

TEST(TopKTest, TieIdsOverridePositionOrder) {
  const std::vector<float> scores = {7.0f, 7.0f, 7.0f, 9.0f};
  const std::vector<int64_t> ids = {30, 10, 20, 5};
  // Returned values are positions, ranked by (score desc, id asc).
  const std::vector<int64_t> want = {3, 1, 2, 0};
  EXPECT_EQ(tmath::TopKWithTieIds(scores.data(), 4, 4, ids.data()), want);
  EXPECT_EQ(tmath::TopKWithTieIds(scores.data(), 4, 2, ids.data()),
            (std::vector<int64_t>{3, 1}));
}

TEST(TopKTest, PropertyMatchesPartialSortOnAdversarialInputs) {
  Rng rng(1234);
  for (int trial = 0; trial < 400; ++trial) {
    const int64_t m = static_cast<int64_t>(rng.UniformInt(40));
    std::vector<float> scores(static_cast<size_t>(m));
    for (float& s : scores) {
      // Half the values from the adversarial zoo, half smooth randoms.
      s = rng.UniformInt(2) == 0
              ? AdversarialValue(&rng)
              : rng.UniformFloat(-2.0f, 2.0f);
    }
    for (const int64_t k :
         {int64_t{0}, int64_t{1}, m / 2, m - 1, m, m + 1}) {
      ExpectMatchesReference(scores, k);
    }
  }
}

TEST(TopKTest, PropertyMatchesPartialSortAtScale) {
  // Larger arrays cross several radix levels and exercise the exact-fit
  // bucket early exit; a coarse value grid forces massive tie classes.
  Rng rng(99);
  for (const int64_t m : {int64_t{1000}, int64_t{5000}}) {
    std::vector<float> scores(static_cast<size_t>(m));
    for (float& s : scores) {
      s = static_cast<float>(rng.UniformInt(17)) * 0.25f - 2.0f;
    }
    for (const int64_t k : {int64_t{1}, int64_t{10}, int64_t{999}, m}) {
      ExpectMatchesReference(scores, k);
    }
  }
}

// Above m = 16384 TopK tries a sampled prefilter (threshold scan +
// select among candidates) before the full radix select. These tests pin
// that the fast path — and every one of its fallbacks — still returns
// exactly the reference answer, at every available SIMD level (the
// candidate scan dispatches through kernels::FilterGe).

using sdea::testing::ScopedSimdLevel;

void ExpectMatchesReferenceAtAllSimdLevels(
    const std::vector<float>& scores, int64_t k,
    const std::vector<int64_t>* tie_ids = nullptr) {
  for (const tmath::SimdLevel level :
       {tmath::SimdLevel::kScalar, tmath::SimdLevel::kAvx2}) {
    if (level == tmath::SimdLevel::kAvx2 && !tmath::Avx2Supported()) continue;
    ScopedSimdLevel scoped(level);
    ExpectMatchesReference(scores, k, tie_ids);
  }
}

TEST(TopKTest, PrefilterPathMatchesReferenceOnSmoothScores) {
  // Smooth i.i.d. scores: the sampled threshold is selective, so the
  // prefilter path actually runs (no fallback). Straddle the minimum-m
  // boundary too, so both sides of the size gate are covered.
  Rng rng(2024);
  for (const int64_t m :
       {int64_t{16383}, int64_t{16384}, int64_t{20000}, int64_t{65536}}) {
    std::vector<float> scores(static_cast<size_t>(m));
    for (float& s : scores) s = rng.UniformFloat(-2.0f, 2.0f);
    for (const int64_t k : {int64_t{1}, int64_t{10}, int64_t{100}}) {
      ExpectMatchesReferenceAtAllSimdLevels(scores, k);
    }
  }
}

TEST(TopKTest, PrefilterFallsBackOnMassiveTiePlateau) {
  // Five distinct values over 20k elements: the sample max ties ~1/5 of
  // the input, blowing past the candidate cap. The count > cap fallback
  // must hand the whole input to the full select, unchanged.
  Rng rng(31);
  std::vector<float> scores(20000);
  for (float& s : scores) {
    s = static_cast<float>(rng.UniformInt(5)) * 0.5f - 1.0f;
  }
  for (const int64_t k : {int64_t{1}, int64_t{64}, int64_t{19999}}) {
    ExpectMatchesReferenceAtAllSimdLevels(scores, k);
  }
}

TEST(TopKTest, PrefilterFallsBackWhenSampleIsAllNan) {
  // Every sampled position is NaN (key 0), so no usable threshold exists.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> scores(20000, nan);
  // Pure NaN input: order is by ascending index.
  ExpectMatchesReferenceAtAllSimdLevels(scores, 7);
  // A handful of real scores hidden between sample points (the sample
  // stride is m / 4096 >= 4; positions != 0 mod stride are never probed).
  scores[1] = 0.25f;
  scores[2] = -3.0f;
  scores[19999] = 1.5f;
  ExpectMatchesReferenceAtAllSimdLevels(scores, 5);
}

TEST(TopKTest, PrefilterPathHonorsTieIds) {
  // Large-m duplicates + shuffled tie ids: the prefilter must carry the
  // ORIGINAL ids into the candidate select, not candidate-local indices.
  Rng rng(555);
  const int64_t m = 20000;
  std::vector<float> scores(static_cast<size_t>(m));
  for (float& s : scores) {
    // 256-value grid over 20k elements: ~78 ties per class, so the top
    // class fits inside the candidate cap (~103 here) and the prefilter
    // path genuinely runs while its winners contain exact ties.
    s = static_cast<float>(rng.UniformInt(256)) * (1.0f / 64.0f);
  }
  std::vector<int64_t> ids(static_cast<size_t>(m));
  std::iota(ids.begin(), ids.end(), 5000);
  for (int64_t i = m - 1; i > 0; --i) {
    std::swap(ids[static_cast<size_t>(i)],
              ids[rng.UniformInt(static_cast<uint64_t>(i + 1))]);
  }
  for (const int64_t k : {int64_t{1}, int64_t{25}, int64_t{100}}) {
    ExpectMatchesReferenceAtAllSimdLevels(scores, k, &ids);
  }
}

TEST(TopKTest, PropertyWithTieIdsMatchesReference) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t m = 1 + static_cast<int64_t>(rng.UniformInt(30));
    std::vector<float> scores(static_cast<size_t>(m));
    for (float& s : scores) s = AdversarialValue(&rng);
    // Unique ids in shuffled order (the rerank pool's row ids).
    std::vector<int64_t> ids(static_cast<size_t>(m));
    std::iota(ids.begin(), ids.end(), 100);
    for (int64_t i = m - 1; i > 0; --i) {
      std::swap(ids[static_cast<size_t>(i)],
                ids[rng.UniformInt(static_cast<uint64_t>(i + 1))]);
    }
    for (const int64_t k : {int64_t{1}, m / 2, m}) {
      ExpectMatchesReference(scores, k, &ids);
    }
  }
}

}  // namespace
}  // namespace sdea
