// Contract tests for the kernel dispatch layer: the kernels must reproduce
// the double-accumulation semantics bitwise at every SIMD level (NaN
// payloads aside), and every ranking site's ScoreDot must agree bitwise
// with the MatmulTransposeB score matrix.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "testing/kernel_config.h"

namespace sdea {
namespace {

using tmath::SimdLevel;

using sdea::testing::ScopedSimdLevel;

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

struct MatmulCase {
  Tensor a, b, bt, at;
};

MatmulCase MakeCase(int64_t m, int64_t k, int64_t n, uint64_t seed) {
  Rng rng(seed);
  MatmulCase c;
  c.a = Tensor::RandomNormal({m, k}, 1.0f, &rng);
  c.b = Tensor::RandomNormal({k, n}, 1.0f, &rng);
  c.bt = tmath::Transpose(c.b);  // [n, k] for MatmulTransposeB.
  c.at = tmath::Transpose(c.a);  // [k, m] for MatmulTransposeA.
  return c;
}

// The exact contract, restated independently in the test: per-element
// double accumulation, ascending k, rounded once. The kernels must match
// this bitwise forever — it IS the serial==parallel golden path.
Tensor ReferenceMatmul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        s += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
  return c;
}

TEST(KernelsTest, ExactModeMatchesReferenceBitwise) {
  const MatmulCase c = MakeCase(23, 37, 19, 5);
  const Tensor want = ReferenceMatmul(c.a, c.b);
  ExpectBitwiseEqual(tmath::Matmul(c.a, c.b), want);
  ExpectBitwiseEqual(tmath::MatmulTransposeB(c.a, c.bt), want);
  ExpectBitwiseEqual(tmath::MatmulTransposeA(c.at, c.b), want);
}

TEST(KernelsTest, GemvMatchesPerRowDots) {
  Rng rng(11);
  const int64_t m = 53, d = 512;
  const Tensor rows = Tensor::RandomNormal({m, d}, 1.0f, &rng);
  const Tensor x = Tensor::RandomNormal({d}, 1.0f, &rng);
  std::vector<float> y(static_cast<size_t>(m));
  tmath::kernels::Gemv(rows.data(), m, d, x.data(), y.data());
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(y[static_cast<size_t>(i)],
              static_cast<float>(
                  tmath::kernels::DotExact(rows.data() + i * d, x.data(), d)));
  }
}

TEST(KernelsTest, ScoreDotAgreesWithScoreMatrix) {
  // The cross-site ranking contract: a candidate scored one-at-a-time via
  // ScoreDot must get the exact bits the MatmulTransposeB score matrix
  // holds — otherwise candidate generation and the pipeline can rank
  // near-ties differently.
  Rng rng(13);
  const int64_t n = 9, m = 21, d = 100;  // d not a multiple of 8 or 32.
  const Tensor src = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  const Tensor tgt = Tensor::RandomNormal({m, d}, 1.0f, &rng);
  const Tensor scores = tmath::MatmulTransposeB(src, tgt);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      const float one = tmath::kernels::ScoreDot(src.data() + i * d,
                                                 tgt.data() + j * d, d);
      EXPECT_EQ(one, scores[i * m + j]) << "i=" << i << " j=" << j;
    }
  }
}

TEST(KernelsTest, NanAndInfPropagate) {
  // The no-term-skipped rule: a NaN/Inf anywhere in the operands reaches
  // the output.
  Tensor a({2, 40}, 1.0f);
  Tensor b({3, 40}, 0.5f);
  a[7] = std::numeric_limits<float>::quiet_NaN();
  b[40 + 3] = std::numeric_limits<float>::infinity();
  const Tensor c = tmath::MatmulTransposeB(a, b);
  EXPECT_TRUE(std::isnan(c[0 * 3 + 0]));
  EXPECT_TRUE(std::isnan(c[0 * 3 + 1]));
  EXPECT_TRUE(std::isinf(c[1 * 3 + 1]));
}

// --- Exact contract across SIMD levels -------------------------------------
// kScalar and kAvx2 must give the same bits for every non-NaN output of
// the exact kernels, and NaN in the same positions. NaN payloads are not
// compared: which of two NaN operands propagates depends on instruction
// operand order, at either level.

// Counts the elements that break the contract; reports the first one.
int64_t ContractBreaks(const float* scalar, const float* avx2, int64_t size,
                       const std::string& what) {
  int64_t breaks = 0;
  for (int64_t i = 0; i < size; ++i) {
    const bool nan_s = std::isnan(scalar[i]);
    const bool nan_v = std::isnan(avx2[i]);
    bool same = nan_s == nan_v;
    if (same && !nan_s) {
      same = std::memcmp(scalar + i, avx2 + i, sizeof(float)) == 0;
    }
    if (!same && breaks++ == 0) {
      ADD_FAILURE() << what << ": element " << i << " scalar=" << scalar[i]
                    << " avx2=" << avx2[i];
    }
  }
  return breaks;
}

enum class Fill {
  kNormal,    // N(0, 1).
  kFinite,    // N(0, 1) with +-1e30, FLT_MAX, subnormals and +-0 mixed in.
  kNonFinite  // kFinite plus sparse +-Inf and NaNs of two payloads.
};

Tensor FillTensor(std::vector<int64_t> shape, Fill fill, Rng* rng) {
  Tensor t = Tensor::RandomNormal(std::move(shape), 1.0f, rng);
  if (fill == Fill::kNormal) return t;
  const float finite[] = {1e30f,        -1e30f,  FLT_MAX, -FLT_MAX,
                          FLT_TRUE_MIN, -3e-42f, 1e-40f,  FLT_MIN,
                          0.0f,         -0.0f,   -0.0f,   0.0f};
  float other_nan = 0.0f;
  const uint32_t other_nan_bits = 0xffc12345u;  // Negative, other payload.
  std::memcpy(&other_nan, &other_nan_bits, sizeof(other_nan));
  const float non_finite[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              other_nan};
  for (int64_t i = 0; i < t.size(); ++i) {
    const uint64_t draw = rng->UniformInt(1000);
    if (draw < 150) {
      t[i] = finite[rng->UniformInt(std::size(finite))];
    } else if (fill == Fill::kNonFinite && draw < 158) {
      t[i] = non_finite[rng->UniformInt(std::size(non_finite))];
    }
  }
  return t;
}

TEST(KernelsTest, ExactAvx2MatchesScalarOnRandomShapesAndSpecialValues) {
  if (!tmath::Avx2Supported()) GTEST_SKIP() << "AVX2+FMA not supported";
  Rng rng(20261018);
  int64_t one_row = 0, narrow = 0, ragged = 0, empty_k = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int64_t m =
        trial % 5 == 0 ? 1 : 1 + static_cast<int64_t>(rng.UniformInt(70));
    const int64_t n =
        trial % 7 == 0 ? 1 + static_cast<int64_t>(rng.UniformInt(3))
                       : 1 + static_cast<int64_t>(rng.UniformInt(70));
    const int64_t k =
        trial % 11 == 0 ? 0 : 1 + static_cast<int64_t>(rng.UniformInt(70));
    one_row += m == 1;
    narrow += n < 4;
    ragged += n % 8 != 0;
    empty_k += k == 0;
    const Fill fill = static_cast<Fill>(trial % 3);
    const Tensor a = FillTensor({m, k}, fill, &rng);
    const Tensor b = FillTensor({k, n}, fill, &rng);
    const Tensor at = tmath::Transpose(a);
    const Tensor bt = tmath::Transpose(b);

    Tensor out[2][3];
    std::vector<float> gemv[2];
    for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel simd(level);
      const int l = static_cast<int>(level);
      out[l][0] = tmath::Matmul(a, b);
      out[l][1] = tmath::MatmulTransposeA(at, b);
      out[l][2] = tmath::MatmulTransposeB(a, bt);
      // One query (a's first row) against the n rows of bt.
      gemv[l].resize(static_cast<size_t>(n));
      tmath::kernels::Gemv(bt.data(), n, k, a.data(), gemv[l].data());
    }
    const std::string shape = "m=" + std::to_string(m) +
                              " k=" + std::to_string(k) +
                              " n=" + std::to_string(n) +
                              " fill=" + std::to_string(trial % 3);
    const char* names[3] = {"Matmul", "MatmulTransposeA", "MatmulTransposeB"};
    for (int op = 0; op < 3; ++op) {
      EXPECT_EQ(ContractBreaks(out[0][op].data(), out[1][op].data(), m * n,
                               std::string(names[op]) + " " + shape),
                0);
    }
    EXPECT_EQ(ContractBreaks(gemv[0].data(), gemv[1].data(), n,
                             "Gemv " + shape),
              0);
    if (::testing::Test::HasFailure()) break;
  }
  // The draws must have reached every tail of the row-block kernels.
  EXPECT_GT(one_row, 0);
  EXPECT_GT(narrow, 0);
  EXPECT_GT(ragged, 0);
  EXPECT_GT(empty_k, 0);
}

// Both levels, and the portable level first: every kernel test below runs
// at each level the host can pin.
std::vector<SimdLevel> Levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (tmath::Avx2Supported()) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

// --- The TransE step ----------------------------------------------------

// The incremental aligner's per-triple update loop as it stood before the
// step kernel (baselines::TransE::Step did the same arithmetic with every
// flag set): the reference every level must reproduce.
void LegacyDistances(const tmath::kernels::TransERows& w, int64_t d,
                     float* d_pos, float* d_neg) {
  *d_pos = 0.0f;
  *d_neg = 0.0f;
  for (int64_t k = 0; k < d; ++k) {
    const float dp = w.h[k] + w.r[k] - w.t[k];
    const float dn = w.hn[k] + w.r[k] - w.tn[k];
    *d_pos += dp * dp;
    *d_neg += dn * dn;
  }
}

bool LegacyTransEStep(const tmath::kernels::TransERows& w, int64_t d,
                      float margin, float lr) {
  float d_pos;
  float d_neg;
  LegacyDistances(w, d, &d_pos, &d_neg);
  if (margin + d_pos - d_neg <= 0.0f) return false;
  for (int64_t k = 0; k < d; ++k) {
    const float gp = 2.0f * (w.h[k] + w.r[k] - w.t[k]);
    const float gn = 2.0f * (w.hn[k] + w.r[k] - w.tn[k]);
    if (w.write_h) w.h[k] -= lr * gp;
    if (w.write_t) w.t[k] += lr * gp;
    if (w.write_hn) w.hn[k] += lr * gn;
    if (w.write_tn) w.tn[k] -= lr * gn;
    if (w.write_r) w.r[k] -= lr * (gp - gn);
  }
  return true;
}

// Which of four entity rows play h, t, hn and tn.
struct StepAlias {
  const char* name;
  int h, t, hn, tn;
};

// The step's rows over `ent` [4, d] and `rel` [1, d]; flag `off` (0..4 for
// h, t, hn, tn, r; -1 for none) is cleared.
tmath::kernels::TransERows StepRows(Tensor* ent, Tensor* rel,
                                    const StepAlias& alias, int off) {
  const int64_t d = ent->dim(1);
  float* e = ent->data();
  tmath::kernels::TransERows w{e + alias.h * d, e + alias.t * d,
                               e + alias.hn * d, e + alias.tn * d,
                               rel->data()};
  bool* flags[] = {&w.write_h, &w.write_t, &w.write_hn, &w.write_tn,
                   &w.write_r};
  if (off >= 0) *flags[off] = false;
  return w;
}

TEST(KernelsTest, TransEStepMatchesLegacyLoopAtEveryLevel) {
  const StepAlias aliases[] = {
      {"distinct rows", 0, 1, 2, 3},
      {"head corruption (tn == t)", 0, 1, 2, 1},
      {"tail corruption (hn == h)", 0, 1, 0, 2},
      {"self-loop, head corruption", 0, 0, 2, 0},
      {"self-loop, tail corruption", 0, 0, 0, 2},
      {"negative head on the tail (hn == t)", 0, 1, 1, 1},
      {"negative tail on the head (tn == h)", 0, 1, 0, 0},
  };
  Rng rng(20261020);
  int64_t active = 0;
  int64_t inactive = 0;
  for (const int64_t d : {1, 3, 4, 7, 8, 16, 47, 48}) {
    for (int f = 0; f < 3; ++f) {
      const Fill fill = static_cast<Fill>(f);
      const Tensor ent0 = FillTensor({4, d}, fill, &rng);
      const Tensor rel0 = FillTensor({1, d}, fill, &rng);
      for (const StepAlias& alias : aliases) {
        // Margins that keep the hinge on, off, and on either side of its
        // edge: one ulp of the distances apart around d_neg - d_pos, where
        // a distance summed in another order flips the decision.
        std::vector<float> margins = {1e6f, 1.5f, -1e6f};
        Tensor probe_ent = ent0;
        Tensor probe_rel = rel0;
        float d_pos;
        float d_neg;
        LegacyDistances(StepRows(&probe_ent, &probe_rel, alias, -1), d,
                        &d_pos, &d_neg);
        const float big = std::max(d_pos, d_neg);
        const float ulp = std::nextafter(big, INFINITY) - big;
        for (int u = -3; u <= 3; ++u) {
          margins.push_back(d_neg - d_pos + static_cast<float>(u) * ulp);
        }
        for (int off = -1; off < 5; ++off) {
          for (const float margin : margins) {
            const std::string what =
                std::string(alias.name) + " d=" + std::to_string(d) +
                " fill=" + std::to_string(f) + " off=" + std::to_string(off) +
                " margin=" + std::to_string(margin);
            Tensor want_ent = ent0;
            Tensor want_rel = rel0;
            const bool want = LegacyTransEStep(
                StepRows(&want_ent, &want_rel, alias, off), d, margin, 0.01f);
            if (want) {
              ++active;
            } else {
              // An inactive hinge writes nothing.
              ++inactive;
              ExpectBitwiseEqual(want_ent, ent0);
              ExpectBitwiseEqual(want_rel, rel0);
            }
            for (const SimdLevel level : Levels()) {
              ScopedSimdLevel simd(level);
              Tensor ent = ent0;
              Tensor rel = rel0;
              const std::string at =
                  what + " level=" + tmath::SimdLevelName(level);
              EXPECT_EQ(tmath::kernels::TransEStep(
                            StepRows(&ent, &rel, alias, off), d, margin,
                            0.01f),
                        want)
                  << at;
              EXPECT_EQ(ContractBreaks(want_ent.data(), ent.data(),
                                       ent.size(), "entities " + at),
                        0);
              EXPECT_EQ(ContractBreaks(want_rel.data(), rel.data(),
                                       rel.size(), "relation " + at),
                        0);
            }
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(active, 0);
  EXPECT_GT(inactive, 0);
}

// The incremental aligner's scans gather up to 64 query rows and score
// them in one MatmulTransposeBRows call: every score must have the bits
// of the one-query Gemv it replaces, at an n that leaves both a partial
// 32-row panel and a column tail.
TEST(KernelsTest, GatheredRowBlockMatchesPerRowGemv) {
  Rng rng(64);
  const int64_t d = 48, n = 203, table_rows = 150, block = 64;
  ASSERT_NE(n % 32, 0);
  ASSERT_NE(n % 4, 0);
  for (const Fill fill : {Fill::kNormal, Fill::kFinite}) {
    const Tensor table = FillTensor({table_rows, d}, fill, &rng);
    const Tensor side = FillTensor({n, d}, fill, &rng);
    Tensor gathered({block, d});
    for (int64_t r = 0; r < block; ++r) {
      const auto src = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(table_rows)));
      std::memcpy(gathered.data() + r * d, table.data() + src * d,
                  static_cast<size_t>(d) * sizeof(float));
    }
    for (const SimdLevel level : Levels()) {
      ScopedSimdLevel simd(level);
      std::vector<float> scores(static_cast<size_t>(block * n));
      tmath::kernels::MatmulTransposeBRows(gathered.data(), side.data(),
                                           scores.data(), d, n, 0, block);
      std::vector<float> row(static_cast<size_t>(n));
      for (int64_t r = 0; r < block; ++r) {
        tmath::kernels::Gemv(side.data(), n, d, gathered.data() + r * d,
                             row.data());
        EXPECT_EQ(std::memcmp(row.data(), scores.data() + r * n,
                              static_cast<size_t>(n) * sizeof(float)),
                  0)
            << "row " << r << " level " << tmath::SimdLevelName(level);
      }
    }
  }
}

// --- The GloVe step and ReLU ---------------------------------------------

// CooccurrencePretrainer::Train's per-pair update as it stood before the
// step kernel: the reference every level must reproduce.
void LegacyGloveStep(float* wi, float* cj, float* gwi, float* gcj, float* bw,
                     float* bc, float* gbw, float* gbc, int64_t d,
                     float weight, float log_x, float lr) {
  float dot = 0.0f;
  for (int64_t k = 0; k < d; ++k) dot += wi[k] * cj[k];
  const float err = dot + *bw + *bc - log_x;
  const float coeff = weight * err;
  for (int64_t k = 0; k < d; ++k) {
    const float grad_w = coeff * cj[k];
    const float grad_c = coeff * wi[k];
    gwi[k] += grad_w * grad_w;
    gcj[k] += grad_c * grad_c;
    wi[k] -= lr * grad_w / std::sqrt(gwi[k]);
    cj[k] -= lr * grad_c / std::sqrt(gcj[k]);
  }
  *gbw += coeff * coeff;
  *gbc += coeff * coeff;
  *bw -= lr * coeff / std::sqrt(*gbw);
  *bc -= lr * coeff / std::sqrt(*gbc);
}

// One pair's state: rows [4, d] hold w, c, gw and gc; scalars [4] hold
// bw, bc, gbw and gbc.
struct GloveState {
  Tensor rows;
  Tensor scalars;

  tmath::kernels::GloveRows Rows() {
    const int64_t d = rows.dim(1);
    float* r = rows.data();
    float* b = scalars.data();
    return {r, r + d, r + 2 * d, r + 3 * d, b, b + 1, b + 2, b + 3};
  }
};

TEST(KernelsTest, GloveStepMatchesLegacyLoopAtEveryLevel) {
  struct Pair {
    float weight;
    float log_x;
  };
  // Plain pairs, a zero weight, one that overflows the step and a
  // subnormal weight.
  const Pair pairs[] = {{1.0f, 0.0f},   {0.37f, 2.3f},  {0.0f, -1.5f},
                        {1e30f, 1e10f}, {5e-39f, 0.7f}, {0.81f, -0.25f}};
  Rng rng(20261021);
  int64_t finite = 0;
  for (const int64_t d : {1, 7, 8, 31, 32, 33}) {
    for (int f = 0; f < 3; ++f) {
      const Fill fill = static_cast<Fill>(f);
      GloveState start{FillTensor({4, d}, fill, &rng),
                       FillTensor({4}, fill, &rng)};
      if (fill == Fill::kNormal) {
        // Accumulators start at 1 and only grow during training.
        for (int64_t k = 2 * d; k < 4 * d; ++k) {
          start.rows[k] = 1.0f + std::fabs(start.rows[k]);
        }
        for (int64_t k = 2; k < 4; ++k) {
          start.scalars[k] = 1.0f + std::fabs(start.scalars[k]);
        }
      }
      for (const Pair& pair : pairs) {
        const std::string what = "d=" + std::to_string(d) +
                                 " fill=" + std::to_string(f) +
                                 " weight=" + std::to_string(pair.weight);
        // Three steps on the same rows, so each starts from updated state.
        GloveState want = start;
        for (int step = 0; step < 3; ++step) {
          const tmath::kernels::GloveRows r = want.Rows();
          LegacyGloveStep(r.w, r.c, r.gw, r.gc, r.bw, r.bc, r.gbw, r.gbc, d,
                          pair.weight, pair.log_x, 0.05f);
        }
        for (int64_t k = 0; k < want.rows.size(); ++k) {
          finite += std::isfinite(want.rows[k]) ? 1 : 0;
        }
        for (const SimdLevel level : Levels()) {
          ScopedSimdLevel simd(level);
          GloveState got = start;
          for (int step = 0; step < 3; ++step) {
            tmath::kernels::GloveStep(got.Rows(), d, pair.weight, pair.log_x,
                                      0.05f);
          }
          const std::string at =
              what + " level=" + tmath::SimdLevelName(level);
          EXPECT_EQ(ContractBreaks(want.rows.data(), got.rows.data(),
                                   got.rows.size(), "rows " + at),
                    0);
          EXPECT_EQ(ContractBreaks(want.scalars.data(), got.scalars.data(),
                                   got.scalars.size(), "biases " + at),
                    0);
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(finite, 0);
}

TEST(KernelsTest, ReluMatchesLegacyLoopAtEveryLevel) {
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            FLT_TRUE_MIN,
                            -FLT_TRUE_MIN,
                            FLT_MAX,
                            -FLT_MAX};
  Rng rng(7);
  for (const int64_t n : {1, 7, 8, 9, 31, 32, 33, 100}) {
    for (int f = 0; f < 3; ++f) {
      Tensor x = FillTensor({n}, static_cast<Fill>(f), &rng);
      // Every special value at the front, in the 8-wide blocks when n
      // allows, in the tail otherwise.
      const int64_t front =
          std::min(n, static_cast<int64_t>(std::size(specials)));
      for (int64_t i = 0; i < front; ++i) x[i] = specials[i];
      Tensor want = x;
      for (int64_t i = 0; i < n; ++i) want[i] = std::max(0.0f, want[i]);
      for (const SimdLevel level : Levels()) {
        ScopedSimdLevel simd(level);
        Tensor got = x;
        tmath::kernels::ReluInPlace(got.data(), n);
        // ReLU never returns NaN, so every bit is compared.
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              static_cast<size_t>(n) * sizeof(float)),
                  0)
            << "n=" << n << " fill=" << f
            << " level=" << tmath::SimdLevelName(level);
      }
    }
  }
}

TEST(KernelsTest, DispatchReportsAndPinsLevels) {
  EXPECT_STREQ(tmath::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(tmath::SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(tmath::KernelModeName(tmath::KernelMode::kExact), "exact");
  // Scalar can always be pinned, whatever the hardware.
  ScopedSimdLevel simd(SimdLevel::kScalar);
  EXPECT_EQ(tmath::ActiveSimdLevel(), SimdLevel::kScalar);
  if (tmath::Avx2Supported()) {
    tmath::SetSimdLevel(SimdLevel::kAvx2);
    EXPECT_EQ(tmath::ActiveSimdLevel(), SimdLevel::kAvx2);
  }
  // Supported() implies CompiledIn().
  EXPECT_TRUE(!tmath::Avx2Supported() || tmath::Avx2CompiledIn());
}

}  // namespace
}  // namespace sdea
