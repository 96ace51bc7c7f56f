#include "nn/serialization.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "base/fileio.h"
#include "nn/layers.h"

namespace sdea::nn {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(SerializationTest, RoundTripRestoresWeights) {
  Rng rng(1);
  Mlp original("m", {4, 8, 2}, Activation::kRelu, &rng);
  const std::string path = TempPath("sdea_ckpt_roundtrip.bin");
  ASSERT_TRUE(SaveCheckpoint(&original, path).ok());

  Rng rng2(999);  // Different init.
  Mlp restored("m", {4, 8, 2}, Activation::kRelu, &rng2);
  ASSERT_TRUE(LoadCheckpoint(&restored, path).ok());

  auto pa = original.Parameters();
  auto pb = restored.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size());
    for (int64_t j = 0; j < pa[i]->value.size(); ++j) {
      EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
}

std::vector<float> Flatten(Module* m) {
  std::vector<float> out;
  for (Parameter* p : m->Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) out.push_back(p->value[i]);
  }
  return out;
}

TEST(SerializationTest, UnknownParameterNameIsInvalidArgument) {
  Rng rng(2);
  Mlp small("m", {4, 2}, Activation::kRelu, &rng);
  const std::string path = TempPath("sdea_ckpt_missing.bin");
  ASSERT_TRUE(SaveCheckpoint(&small, path).ok());
  Mlp bigger("m2", {4, 2}, Activation::kRelu, &rng);  // Different names.
  const std::vector<float> before = Flatten(&bigger);
  Status s = LoadCheckpoint(&bigger, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Flatten(&bigger), before);  // Nothing was overwritten.
}

TEST(SerializationTest, ShapeMismatchFails) {
  Rng rng(3);
  Mlp a("m", {4, 2}, Activation::kRelu, &rng);
  const std::string path = TempPath("sdea_ckpt_shape.bin");
  ASSERT_TRUE(SaveCheckpoint(&a, path).ok());
  Mlp b("m", {4, 3}, Activation::kRelu, &rng);  // Same names, new shapes.
  Status s = LoadCheckpoint(&b, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, ShapeMismatchLeavesNoPartialLoad) {
  // Two-layer MLP: the first layer's shapes agree between writer and
  // reader, the second layer's do not. A single-pass loader would copy
  // layer 1 before discovering the layer-2 mismatch; the contract is that
  // a failed load modifies NO parameter.
  Rng rng(4);
  Mlp writer("m", {4, 8, 2}, Activation::kRelu, &rng);
  const std::string path = TempPath("sdea_ckpt_partial.bin");
  ASSERT_TRUE(SaveCheckpoint(&writer, path).ok());
  Rng rng2(5);
  Mlp reader("m", {4, 8, 3}, Activation::kRelu, &rng2);
  const std::vector<float> before = Flatten(&reader);
  Status s = LoadCheckpoint(&reader, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Flatten(&reader), before);
}

TEST(SerializationTest, BlobRoundTripBitwise) {
  Rng rng(6);
  Mlp a("m", {3, 5}, Activation::kRelu, &rng);
  const std::string blob = SerializeParameters(&a);
  Rng rng2(7);
  Mlp b("m", {3, 5}, Activation::kRelu, &rng2);
  ASSERT_TRUE(DeserializeParameters(&b, blob).ok());
  EXPECT_EQ(Flatten(&a), Flatten(&b));
}

TEST(SerializationTest, GarbageFileRejected) {
  const std::string path = TempPath("sdea_ckpt_garbage.bin");
  ASSERT_TRUE(WriteStringToFile(path, "not a checkpoint").ok());
  Rng rng(4);
  Mlp m("m", {2, 2}, Activation::kRelu, &rng);
  EXPECT_FALSE(LoadCheckpoint(&m, path).ok());
}

}  // namespace
}  // namespace sdea::nn
