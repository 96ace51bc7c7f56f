// Codebook training, encoding, and ADC scoring: the quantization error
// bounds the satellite tests document, the int8 scan's exact contract at
// both SIMD levels, bitwise determinism across thread counts (golden FNV
// over the codebook bytes), and the blob round trip.
#include "store/quantizer.h"

#include <gtest/gtest.h>

#include <bitset>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/threadpool.h"
#include "store/adc.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "testing/kernel_config.h"

namespace sdea::store {
namespace {

Tensor RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Tensor t({n, d});
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  tmath::L2NormalizeRowsInPlace(&t);
  return t;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(QuantizerTest, Int8AdcScoreTracksExactDot) {
  const int64_t n = 200, d = 64;
  const Tensor rows = RandomRows(n, d, 11);
  const Codebook cb = Codebook::TrainInt8(rows);
  ASSERT_EQ(cb.code_bytes(), d);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);

  const Tensor q = RandomRows(1, d, 99);
  std::vector<float> q_scaled(static_cast<size_t>(d));
  Int8PrepareQuery(q.data(), cb.scales().data(), d, q_scaled.data());
  std::vector<float> adc(static_cast<size_t>(n));
  AdcScanInt8(codes.data(), n, d, q_scaled.data(), adc.data());

  // The documented int8 tolerance: each component is off by at most half
  // an LSB (scale/2 <= 1/254 for unit rows), so the dot with a unit query
  // is off by at most sum_j |q_j| * scale_j / 2 <= sqrt(d)/254.
  const double tol = std::sqrt(static_cast<double>(d)) / 254.0;
  for (int64_t i = 0; i < n; ++i) {
    const float exact = tmath::kernels::ScoreDot(
        q.data(), rows.data() + i * d, d);
    EXPECT_NEAR(adc[static_cast<size_t>(i)], exact, tol) << "row " << i;
  }
}

TEST(QuantizerTest, Int8AdcEqualsDotWithDequantizedRow) {
  // ADC's guarantee: the score is the dot with the *dequantized* row (the
  // scale folds onto the query side), so ADC ranks exactly what a
  // decode-then-score pipeline would rank, without decoding.
  const int64_t n = 50, d = 32;
  const Tensor rows = RandomRows(n, d, 7);
  const Codebook cb = Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  const Tensor q = RandomRows(1, d, 3);

  std::vector<float> q_scaled(static_cast<size_t>(d));
  Int8PrepareQuery(q.data(), cb.scales().data(), d, q_scaled.data());
  std::vector<float> adc(static_cast<size_t>(n));
  AdcScanInt8(codes.data(), n, d, q_scaled.data(), adc.data());

  std::vector<float> dequant(static_cast<size_t>(d));
  for (int64_t i = 0; i < n; ++i) {
    cb.DecodeRow(codes.data() + i * d, dequant.data());
    const float direct =
        tmath::kernels::ScoreDot(q.data(), dequant.data(), d);
    // Not bitwise (q*scale vs scale*code round differently) but within a
    // few ulps of each other, far inside the ranking tolerance.
    EXPECT_NEAR(adc[static_cast<size_t>(i)], direct, 1e-5f) << "row " << i;
  }
}

TEST(QuantizerTest, Int8AdcAvx2MatchesScalarOnRandomShapesAndSpecialValues) {
  // The exact contract across SIMD levels: the AVX2 int8 scan gives every
  // non-NaN score the scalar loop's bits and NaN in the same positions.
  // Shapes cover one-code rows, ragged code tails (d % 8 != 0) and
  // partial row blocks; the queries mix in values far from unit scale.
  if (!tmath::Avx2Supported()) GTEST_SKIP() << "AVX2+FMA not supported";
  const float finite[] = {1e30f,        -1e30f,  FLT_MAX, -FLT_MAX,
                          FLT_TRUE_MIN, -3e-42f, 1e-40f,  FLT_MIN,
                          0.0f,         -0.0f};
  const float non_finite[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
  Rng rng(20261018);
  std::bitset<256> seen;
  int64_t one_code = 0, ragged = 0, partial_block = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int64_t n = static_cast<int64_t>(rng.UniformInt(71));
    const int64_t d =
        trial % 9 == 0 ? 1 : 1 + static_cast<int64_t>(rng.UniformInt(150));
    one_code += d == 1;
    ragged += d % 8 != 0;
    partial_block += n % 16 != 0;
    std::vector<uint8_t> codes(static_cast<size_t>(n * d));
    for (size_t i = 0; i < codes.size(); ++i) {
      // Every other trial sweeps the byte values in order.
      codes[i] = static_cast<uint8_t>(trial % 2 == 0 ? i
                                                     : rng.UniformInt(256));
      seen.set(codes[i]);
    }
    // Fill 0: N(0, 1); 1: plus large, tiny and signed-zero values;
    // 2: plus sparse infinities and NaNs.
    const int fill = trial % 3;
    std::vector<float> q(static_cast<size_t>(d));
    for (float& x : q) {
      x = static_cast<float>(rng.Normal());
      const uint64_t draw = rng.UniformInt(1000);
      if (fill >= 1 && draw < 150) {
        x = finite[rng.UniformInt(std::size(finite))];
      } else if (fill == 2 && draw < 160) {
        x = non_finite[rng.UniformInt(std::size(non_finite))];
      }
    }
    std::vector<float> out[2];
    for (const tmath::SimdLevel level :
         {tmath::SimdLevel::kScalar, tmath::SimdLevel::kAvx2}) {
      sdea::testing::ScopedSimdLevel simd(level);
      std::vector<float>& o = out[static_cast<int>(level)];
      o.resize(static_cast<size_t>(n));
      AdcScanInt8(codes.data(), n, d, q.data(), o.data());
    }
    for (int64_t i = 0; i < n; ++i) {
      const float scalar = out[0][static_cast<size_t>(i)];
      const float avx2 = out[1][static_cast<size_t>(i)];
      const bool same =
          std::isnan(scalar)
              ? std::isnan(avx2)
              : std::memcmp(&scalar, &avx2, sizeof(float)) == 0;
      ASSERT_TRUE(same) << "n=" << n << " d=" << d << " fill=" << fill
                        << " row " << i << " scalar=" << scalar
                        << " avx2=" << avx2;
    }
  }
  // The draws must have reached every code value and every tail.
  EXPECT_TRUE(seen.all());
  EXPECT_GT(one_code, 0);
  EXPECT_GT(ragged, 0);
  EXPECT_GT(partial_block, 0);
}

TEST(QuantizerTest, PqAdcScoreTracksExactDot) {
  const int64_t n = 300, d = 64;
  const Tensor rows = RandomRows(n, d, 21);
  PqOptions options;
  options.num_subspaces = 8;
  options.num_centroids = 64;
  auto cb = Codebook::TrainPq(rows, options);
  ASSERT_TRUE(cb.ok());
  ASSERT_EQ(cb->code_bytes(), 8);
  const std::vector<uint8_t> codes = cb->EncodeRows(rows.data(), n);

  const Tensor q = RandomRows(1, d, 5);
  std::vector<float> lut(
      static_cast<size_t>(cb->pq_subspaces() * cb->pq_centroids()));
  PqBuildLut(q.data(), *cb, lut.data());
  std::vector<float> adc(static_cast<size_t>(n));
  AdcScanPq(codes.data(), n, cb->pq_subspaces(), cb->pq_centroids(),
            lut.data(), adc.data());

  // PQ is lossier than int8; this pins a loose absolute bound and, more
  // importantly, that ADC == dot(q, reconstructed row) almost exactly.
  std::vector<float> dequant(static_cast<size_t>(d));
  for (int64_t i = 0; i < n; ++i) {
    cb->DecodeRow(codes.data() + i * cb->code_bytes(), dequant.data());
    const float recon =
        tmath::kernels::ScoreDot(q.data(), dequant.data(), d);
    EXPECT_NEAR(adc[static_cast<size_t>(i)], recon, 1e-4f) << "row " << i;
    const float exact =
        tmath::kernels::ScoreDot(q.data(), rows.data() + i * d, d);
    EXPECT_NEAR(adc[static_cast<size_t>(i)], exact, 0.5f) << "row " << i;
  }
}

TEST(QuantizerTest, CodebookBytesIdenticalAcrossThreadCounts) {
  // The satellite determinism contract: training and encoding shard rows
  // across threads but every tie breaks structurally, so the codebook
  // blob and the codes are byte-identical for any pool size. FNV-1a over
  // the bytes makes a drift show up as one number.
  const Tensor rows = RandomRows(500, 32, 33);
  PqOptions options;
  options.num_subspaces = 4;
  options.num_centroids = 32;

  uint64_t int8_hash = 0, pq_hash = 0, codes_hash = 0;
  for (int threads : {1, 2, 8}) {
    base::ThreadPool::SetGlobalNumThreads(threads);
    const Codebook int8 = Codebook::TrainInt8(rows);
    auto pq = Codebook::TrainPq(rows, options);
    ASSERT_TRUE(pq.ok());
    const std::vector<uint8_t> codes = pq->EncodeRows(rows.data(), 500);
    const uint64_t h1 = Fnv1a(int8.Encode());
    const uint64_t h2 = Fnv1a(pq->Encode());
    const uint64_t h3 = Fnv1a(std::string(codes.begin(), codes.end()));
    if (threads == 1) {
      int8_hash = h1;
      pq_hash = h2;
      codes_hash = h3;
    } else {
      EXPECT_EQ(h1, int8_hash) << threads << " threads";
      EXPECT_EQ(h2, pq_hash) << threads << " threads";
      EXPECT_EQ(h3, codes_hash) << threads << " threads";
    }
  }
  base::ThreadPool::SetGlobalNumThreads(base::ThreadPool::DefaultNumThreads());
}

TEST(QuantizerTest, CodebookBlobRoundTripsBitwise) {
  const Tensor rows = RandomRows(100, 16, 44);
  const Codebook int8 = Codebook::TrainInt8(rows);
  auto decoded = Codebook::Decode(int8.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Encode(), int8.Encode());
  EXPECT_EQ(decoded->kind(), Quantization::kInt8);
  EXPECT_EQ(decoded->dim(), 16);

  PqOptions options;
  options.num_subspaces = 4;
  options.num_centroids = 16;
  auto pq = Codebook::TrainPq(rows, options);
  ASSERT_TRUE(pq.ok());
  auto pq_decoded = Codebook::Decode(pq->Encode());
  ASSERT_TRUE(pq_decoded.ok());
  EXPECT_EQ(pq_decoded->Encode(), pq->Encode());
  EXPECT_EQ(pq_decoded->pq_subspaces(), 4);
  EXPECT_EQ(pq_decoded->pq_centroids(), 16);
}

TEST(QuantizerTest, TrainPqRejectsBadGeometry) {
  const Tensor rows = RandomRows(10, 12, 1);
  PqOptions options;
  options.num_subspaces = 5;  // 12 % 5 != 0.
  EXPECT_FALSE(Codebook::TrainPq(rows, options).ok());
  options.num_subspaces = 4;
  options.num_centroids = 300;  // Codes are u8.
  EXPECT_FALSE(Codebook::TrainPq(rows, options).ok());
  options.num_centroids = 16;
  EXPECT_FALSE(Codebook::TrainPq(Tensor({0, 12}), options).ok());
}

TEST(QuantizerTest, CentroidCountClampsToSample) {
  // 10 rows but 64 requested centroids: k clamps to the sample size and
  // the codes stay within it.
  const Tensor rows = RandomRows(10, 8, 2);
  PqOptions options;
  options.num_subspaces = 2;
  options.num_centroids = 64;
  auto cb = Codebook::TrainPq(rows, options);
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(cb->pq_centroids(), 10);
  const std::vector<uint8_t> codes = cb->EncodeRows(rows.data(), 10);
  for (uint8_t c : codes) EXPECT_LT(c, 10);
}

TEST(QuantizerTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Codebook::Decode("").ok());
  EXPECT_FALSE(Codebook::Decode("SDEACBK1").ok());
  EXPECT_FALSE(Codebook::Decode(std::string(64, '\xff')).ok());
}

}  // namespace
}  // namespace sdea::store
