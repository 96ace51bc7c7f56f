// Parallel results must be bitwise-identical to serial: every parallelized
// kernel shards disjoint output rows and keeps per-row accumulation order
// unchanged, so this file asserts exact equality (including float bit
// patterns) between 1-thread and 8-thread runs.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/threadpool.h"
#include "core/candidate_generator.h"
#include "core/stable_matching.h"
#include "eval/metrics.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace sdea {
namespace {

// Runs `fn` with the global pool at `num_threads`, restoring the default
// pool afterwards so other tests see the ambient configuration.
template <typename Fn>
auto RunWithThreads(int num_threads, Fn&& fn) {
  base::ThreadPool::SetGlobalNumThreads(num_threads);
  auto result = fn();
  base::ThreadPool::SetGlobalNumThreads(base::ThreadPool::DefaultNumThreads());
  return result;
}

// Bitwise tensor equality (NaN-safe, unlike operator== on floats).
void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

TEST(ParallelDeterminismTest, MatmulMatchesSerialBitwise) {
  Rng rng(11);
  const Tensor a = Tensor::RandomNormal({67, 41}, 1.0f, &rng);
  const Tensor b = Tensor::RandomNormal({41, 53}, 1.0f, &rng);
  const Tensor serial = RunWithThreads(1, [&] { return tmath::Matmul(a, b); });
  const Tensor parallel =
      RunWithThreads(8, [&] { return tmath::Matmul(a, b); });
  ExpectBitwiseEqual(serial, parallel);
}

TEST(ParallelDeterminismTest, MatmulTransposeBMatchesSerialBitwise) {
  Rng rng(12);
  const Tensor a = Tensor::RandomNormal({67, 41}, 1.0f, &rng);
  const Tensor b = Tensor::RandomNormal({53, 41}, 1.0f, &rng);
  const Tensor serial =
      RunWithThreads(1, [&] { return tmath::MatmulTransposeB(a, b); });
  const Tensor parallel =
      RunWithThreads(8, [&] { return tmath::MatmulTransposeB(a, b); });
  ExpectBitwiseEqual(serial, parallel);
}

TEST(ParallelDeterminismTest, MatmulTransposeAMatchesSerialBitwise) {
  Rng rng(13);
  const Tensor a = Tensor::RandomNormal({41, 67}, 1.0f, &rng);
  const Tensor b = Tensor::RandomNormal({41, 53}, 1.0f, &rng);
  const Tensor serial =
      RunWithThreads(1, [&] { return tmath::MatmulTransposeA(a, b); });
  const Tensor parallel =
      RunWithThreads(8, [&] { return tmath::MatmulTransposeA(a, b); });
  ExpectBitwiseEqual(serial, parallel);
}

TEST(ParallelDeterminismTest, SoftmaxRowsMatchesSerialBitwise) {
  Rng rng(14);
  const Tensor a = Tensor::RandomNormal({200, 37}, 3.0f, &rng);
  const Tensor serial =
      RunWithThreads(1, [&] { return tmath::SoftmaxRows(a); });
  const Tensor parallel =
      RunWithThreads(8, [&] { return tmath::SoftmaxRows(a); });
  ExpectBitwiseEqual(serial, parallel);
}

TEST(ParallelDeterminismTest, MatmulVariantsAgreeUnderSharedPolicy) {
  // The unified accumulation policy (double, ascending k, no skipping)
  // makes the three variants bitwise-consistent on transposed views.
  Rng rng(15);
  const Tensor a = Tensor::RandomNormal({31, 23}, 1.0f, &rng);
  const Tensor b = Tensor::RandomNormal({23, 29}, 1.0f, &rng);
  const Tensor c = tmath::Matmul(a, b);
  const Tensor tb = tmath::MatmulTransposeB(a, tmath::Transpose(b));
  const Tensor ta = tmath::MatmulTransposeA(tmath::Transpose(a), b);
  ExpectBitwiseEqual(c, tb);
  ExpectBitwiseEqual(c, ta);
}

TEST(ParallelDeterminismTest, EvaluateAlignmentMatchesSerialExactly) {
  Rng rng(16);
  const Tensor src = Tensor::RandomNormal({120, 16}, 1.0f, &rng);
  const Tensor tgt = Tensor::RandomNormal({150, 16}, 1.0f, &rng);
  std::vector<int64_t> gold(120);
  for (size_t i = 0; i < gold.size(); ++i) {
    gold[i] = (i % 7 == 0) ? -1 : static_cast<int64_t>(rng.UniformInt(150));
  }
  const auto serial =
      RunWithThreads(1, [&] { return eval::EvaluateAlignment(src, tgt, gold); });
  const auto parallel =
      RunWithThreads(8, [&] { return eval::EvaluateAlignment(src, tgt, gold); });
  EXPECT_EQ(serial.num_queries, parallel.num_queries);
  EXPECT_EQ(serial.hits_at_1, parallel.hits_at_1);
  EXPECT_EQ(serial.hits_at_10, parallel.hits_at_10);
  EXPECT_EQ(serial.mrr, parallel.mrr);  // Exact double equality.
}

TEST(ParallelDeterminismTest, GoldRanksMatchSerialExactly) {
  Rng rng(17);
  const Tensor src = Tensor::RandomNormal({90, 12}, 1.0f, &rng);
  const Tensor tgt = Tensor::RandomNormal({110, 12}, 1.0f, &rng);
  std::vector<int64_t> gold(90);
  for (size_t i = 0; i < gold.size(); ++i) {
    gold[i] = static_cast<int64_t>(rng.UniformInt(110));
  }
  const auto serial =
      RunWithThreads(1, [&] { return eval::GoldRanks(src, tgt, gold); });
  const auto parallel =
      RunWithThreads(8, [&] { return eval::GoldRanks(src, tgt, gold); });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminismTest, StableMatchEmbeddingsMatchesSerialExactly) {
  Rng rng(18);
  const Tensor src = Tensor::RandomNormal({80, 16}, 1.0f, &rng);
  const Tensor tgt = Tensor::RandomNormal({70, 16}, 1.0f, &rng);
  const auto serial = RunWithThreads(
      1, [&] { return core::StableMatchEmbeddings(src, tgt); });
  const auto parallel = RunWithThreads(
      8, [&] { return core::StableMatchEmbeddings(src, tgt); });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminismTest, GenerateCandidatesMatchesSerialExactly) {
  Rng rng(20);
  const Tensor tgt = Tensor::RandomNormal({200, 16}, 1.0f, &rng);
  const Tensor src = Tensor::RandomNormal({60, 16}, 1.0f, &rng);
  const auto serial = RunWithThreads(
      1, [&] { return core::GenerateCandidates(src, tgt, 10); });
  const auto parallel = RunWithThreads(
      8, [&] { return core::GenerateCandidates(src, tgt, 10); });
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace sdea
