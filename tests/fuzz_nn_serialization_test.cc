// Fuzz regression suite for the SDEACKP1 parameter-blob decoder and the
// Adam optimizer-state decoder: truncation at every offset, thousands of
// seeded mutations, and the crafted entry counts that used to overflow
// `pos + len`. The evil tensor dims (wrapping `elements * dim`, or a
// negative dimension reaching the Tensor constructor) are pinned against
// base/wire's Reader::Shape in base_wire_test.
#include "nn/serialization.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "testing/fuzz.h"

namespace sdea::nn {
namespace {

// DeserializeParameters mutates the module, so the fuzz decode closure
// rebuilds a fresh target each case from the same seed; decode outcomes
// stay independent of case order.
sdea::testing::DecodeFn ParamsDecoder() {
  return [](const std::string& blob) {
    Rng rng(11);
    Mlp target("m", {4, 8, 2}, Activation::kRelu, &rng);
    return DeserializeParameters(&target, blob);
  };
}

std::string SampleParamsBlob() {
  Rng rng(11);
  Mlp module("m", {4, 8, 2}, Activation::kRelu, &rng);
  return SerializeParameters(&module);
}

TEST(NnSerializationFuzzTest, ValidBlobDecodes) {
  const Status s = ParamsDecoder()(SampleParamsBlob());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(NnSerializationFuzzTest, TruncationAtEveryOffset) {
  const std::string blob = SampleParamsBlob();
  sdea::testing::FuzzStats stats;
  const Status verdict =
      sdea::testing::CheckTruncationRobustness(blob, ParamsDecoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, static_cast<int64_t>(blob.size()));
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(NnSerializationFuzzTest, SeededMutations) {
  const std::string blob = SampleParamsBlob();
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      blob, ParamsDecoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, options.iterations);
  EXPECT_GT(stats.rejected, 0);
}

TEST(NnSerializationFuzzTest, HugeEntryCountRejectsInConstantTime) {
  std::string blob = SampleParamsBlob();
  // The entry count is the u64 right after the 8-byte magic.
  const uint64_t evil = ~uint64_t{0};
  std::memcpy(blob.data() + 8, &evil, 8);
  const Status s = ParamsDecoder()(blob);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---- Adam optimizer state ------------------------------------------------

TEST(NnSerializationFuzzTest, AdamStateSeededMutations) {
  Rng rng(12);
  Mlp module("m", {4, 6, 2}, Activation::kRelu, &rng);
  Adam adam(module.Parameters(), 0.01f);
  adam.Step();  // Materialize the moment slots.
  std::string blob;
  adam.SerializeState(&blob);

  auto decode = [](const std::string& b) {
    Rng r(12);
    Mlp m("m", {4, 6, 2}, Activation::kRelu, &r);
    Adam a(m.Parameters(), 0.01f);
    return a.DeserializeState(b);
  };
  EXPECT_TRUE(decode(blob).ok());

  sdea::testing::FuzzOptions options;
  options.iterations = 2000;
  sdea::testing::FuzzStats stats;
  Status verdict = sdea::testing::CheckMutationRobustness(blob, decode,
                                                          options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  verdict = sdea::testing::CheckTruncationRobustness(blob, decode, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

}  // namespace
}  // namespace sdea::nn
