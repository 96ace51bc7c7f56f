// Byte-for-byte pins of the binary encoders that no other golden covers,
// plus the one end-of-blob rule every decoder shares. The FNV-1a hashes
// were captured by running this file against commit 5bf3f33, before the
// formats moved onto base/wire; a codec change that alters a single
// encoded byte fails here. SDEAKGB2 and SDEAINC1 are pinned in
// train_golden_test (StreamingPresetMatchesGolden) and SDEACBK1 in
// store_quantizer_test, so they are not repeated.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/embedding_store.h"
#include "incr/update_log.h"
#include "kg/binary_io.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/serialization.h"
#include "store/format.h"
#include "store/quantizer.h"
#include "train/checkpoint.h"

namespace sdea {
namespace {

/// FNV-1a over the blob's bytes.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Tensor RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Tensor t({n, d});
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  return t;
}

std::vector<std::string> Names(int64_t n) {
  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) {
    names.push_back("entity/" + std::to_string(i));
  }
  return names;
}

/// Fills every gradient from `rng`, then steps: a few of these give the
/// optimizer non-trivial moment and velocity slots.
void TrainSteps(nn::Module* module, nn::Optimizer* opt, uint64_t seed,
                int steps) {
  Rng rng(seed);
  for (int s = 0; s < steps; ++s) {
    for (Parameter* p : module->Parameters()) {
      for (int64_t i = 0; i < p->grad.size(); ++i) {
        p->grad[i] = rng.UniformFloat(-1.0f, 1.0f);
      }
    }
    opt->Step();
  }
}

std::string ParamsBlob() {
  Rng rng(21);
  nn::Mlp module("m", {5, 7, 3}, nn::Activation::kRelu, &rng);
  return nn::SerializeParameters(&module);
}

std::string AdamBlob() {
  Rng rng(22);
  nn::Mlp module("m", {4, 6, 2}, nn::Activation::kRelu, &rng);
  nn::Adam adam(module.Parameters(), 0.01f);
  TrainSteps(&module, &adam, 23, 3);
  std::string blob;
  adam.SerializeState(&blob);
  return blob;
}

std::string SgdBlob() {
  Rng rng(24);
  nn::Mlp module("m", {4, 6, 2}, nn::Activation::kRelu, &rng);
  nn::Sgd sgd(module.Parameters(), 0.1f, /*momentum=*/0.9f);
  TrainSteps(&module, &sgd, 25, 3);
  std::string blob;
  sgd.SerializeState(&blob);
  return blob;
}

train::TrainerCheckpoint FullCheckpoint() {
  train::TrainerCheckpoint ckpt;
  ckpt.next_epoch = 9;
  ckpt.epochs_run = 8;
  ckpt.best_metric = 0.71875;
  ckpt.since_best = 3;
  ckpt.metric_history = {0.25, 0.5, 0.71875, 0.7, -0.0};
  ckpt.order = {5, 0, 4, 1, 3, 2, ~uint64_t{0}};
  Rng rng(26);
  rng.Normal();  // Populate the Box-Muller cache.
  ckpt.rng = rng.SaveState();
  ckpt.params = ParamsBlob();
  ckpt.best_params = std::string("best\0params", 11);
  ckpt.optimizer = AdamBlob();
  ckpt.finished = true;
  return ckpt;
}

core::EmbeddingStore Store() {
  auto store = core::EmbeddingStore::Create(Names(9), RandomRows(9, 6, 27));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

store::Manifest SampleManifest() {
  store::Manifest manifest;
  manifest.dim = 8;
  manifest.total_rows = 20;
  manifest.store_full_precision = true;
  manifest.codebook = store::Codebook::TrainInt8(RandomRows(20, 8, 28));
  manifest.shards = {store::ShardInfo{12, 8192}, store::ShardInfo{8, 8192}};
  return manifest;
}

std::string ShardBlob(bool with_fp32) {
  const int64_t n = 11, d = 8;
  const Tensor rows = RandomRows(n, d, 29);
  const store::Codebook cb = store::Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  const std::vector<std::string> names = Names(n + 2);
  return store::EncodeShard(cb, codes.data(),
                            with_fp32 ? rows.data() : nullptr, n, names,
                            /*names_begin=*/2);
}

kg::KnowledgeGraph SmallGraph() {
  kg::KnowledgeGraph g;
  const kg::EntityId a = g.AddEntity("a");
  const kg::EntityId b = g.AddEntity("b");
  const kg::RelationId r = g.AddRelation("r");
  const kg::AttributeId p = g.AddAttribute("p");
  g.AddRelationalTriple(a, r, b);
  g.AddAttributeTriple(a, p, "x");
  g.AddAttributeTriple(b, p, "x");
  g.AddAttributeTriple(b, p, "y");
  return g;
}

std::vector<incr::UpdateBatch> SampleLog() {
  incr::UpdateBatch b;
  b.kg1.new_entities = {"a"};
  b.kg1.relational = {{"a", "r", "b"}};
  b.kg2.attributes = {{"c", "p", "v"}};
  return {b, incr::UpdateBatch{}};
}

TEST(WireGoldenTest, ParametersMatchGolden) {
  EXPECT_EQ(Fnv1a(ParamsBlob()), 0x1b7252c2f05beca3ULL);
}

TEST(WireGoldenTest, OptimizerStateMatchesGolden) {
  EXPECT_EQ(Fnv1a(AdamBlob()), 0x5bc719165efc4f4cULL);
  EXPECT_EQ(Fnv1a(SgdBlob()), 0x4ef9418e2c29fc14ULL);
}

TEST(WireGoldenTest, TrainerCheckpointMatchesGolden) {
  EXPECT_EQ(Fnv1a(train::CheckpointManager::Encode(FullCheckpoint())),
            0xb01b9c52c9696c85ULL);
}

TEST(WireGoldenTest, EmbeddingStoreMatchesGolden) {
  EXPECT_EQ(Fnv1a(Store().Encode()), 0x1ee13d716fea9078ULL);
}

TEST(WireGoldenTest, ManifestMatchesGolden) {
  EXPECT_EQ(Fnv1a(store::EncodeManifest(SampleManifest())),
            0x58b0172b22228510ULL);
}

TEST(WireGoldenTest, ShardMatchesGolden) {
  EXPECT_EQ(Fnv1a(ShardBlob(/*with_fp32=*/true)), 0xea275857def0c118ULL);
  EXPECT_EQ(Fnv1a(ShardBlob(/*with_fp32=*/false)), 0x917a2f862f931414ULL);
}

// Every decoder consumes its blob exactly: one byte past a valid blob is
// InvalidArgument, never silently ignored.
TEST(WireGoldenTest, EveryFormatRejectsTrailingBytes) {
  struct Format {
    const char* name;
    std::string blob;
    std::function<Status(const std::string&)> decode;
  };
  const std::vector<Format> formats = {
      {"SDEAKGB2", kg::EncodeBinary(SmallGraph()),
       [](const std::string& b) { return kg::DecodeBinary(b).status(); }},
      {"SDEACKP1", ParamsBlob(),
       [](const std::string& b) {
         Rng rng(21);
         nn::Mlp module("m", {5, 7, 3}, nn::Activation::kRelu, &rng);
         return nn::DeserializeParameters(&module, b);
       }},
      {"SDEATRN1", train::CheckpointManager::Encode(FullCheckpoint()),
       [](const std::string& b) {
         return train::CheckpointManager::Decode(b).status();
       }},
      {"SDEAEMB1", Store().Encode(),
       [](const std::string& b) {
         return core::EmbeddingStore::Decode(b).status();
       }},
      {"SDEACBK1", SampleManifest().codebook.Encode(),
       [](const std::string& b) {
         return store::Codebook::Decode(b).status();
       }},
      {"SDEASTOR1", store::EncodeManifest(SampleManifest()),
       [](const std::string& b) {
         return store::DecodeManifest(b).status();
       }},
      {"SDEASHD1", ShardBlob(/*with_fp32=*/true),
       [](const std::string& b) {
         return store::DecodeShardHeader(b).status();
       }},
      {"SDEAINC1", incr::EncodeUpdateLog(SampleLog()),
       [](const std::string& b) {
         return incr::DecodeUpdateLog(b).status();
       }},
  };
  for (const Format& f : formats) {
    const Status whole = f.decode(f.blob);
    EXPECT_TRUE(whole.ok()) << f.name << ": " << whole.ToString();
    EXPECT_EQ(f.decode(f.blob + "x").code(), StatusCode::kInvalidArgument)
        << f.name << " accepted a trailing byte";
  }
}

}  // namespace
}  // namespace sdea
