// Golden numerics tests for the train::Trainer migration: the final
// embeddings of every migrated model must be bitwise-identical to what the
// pre-refactor hand-rolled loops produced at the same seeds. The pinned
// hashes below were captured from the legacy loops at commit 8b496dd (the
// last commit before the migration) with tests/golden_capture.cc — the
// exact fixtures and configs of this file. If a Trainer change breaks one
// of these, it changed the RNG stream or the update order somewhere.
//
// The later cases (BootEA through the streaming preset) were captured at
// commit d6c8282, before the baselines and datagen/streaming moved from
// KnowledgeGraph's row mirrors onto KgSnapshot scans, by running this
// file against that tree. They pin the triple order each KG read feeds
// into training and into the generated stream.
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>

#include "baselines/gcn_align.h"
#include "baselines/hman.h"
#include "baselines/iptranse.h"
#include "baselines/jape.h"
#include "baselines/kecg.h"
#include "baselines/mtranse.h"
#include "baselines/rsn4ea.h"
#include "baselines/transe.h"
#include "baselines/transe_align.h"
#include "baselines/transedge.h"
#include "baselines/union_graph.h"
#include "core/sdea.h"
#include "datagen/generator.h"
#include "datagen/streaming.h"
#include "incr/update_log.h"
#include "kg/binary_io.h"
#include "testing/kernel_config.h"

namespace sdea {
namespace {

/// FNV-1a over raw bytes.
uint64_t HashBytes(const void* data, size_t bytes) {
  uint64_t h = 1469598103934665603ULL;
  const auto* b = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashTensor(const Tensor& t) {
  // NaN payloads are outside the exact contract, so no golden may hash one.
  int64_t nans = 0;
  for (int64_t i = 0; i < t.size(); ++i) nans += std::isnan(t[i]) ? 1 : 0;
  EXPECT_EQ(nans, 0);
  return HashBytes(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

uint64_t HashString(const std::string& s) {
  return HashBytes(s.data(), s.size());
}

struct Fixture {
  datagen::GeneratedBenchmark bench;
  kg::AlignmentSeeds seeds;
  baselines::AlignInput input() {
    return baselines::AlignInput{&bench.kg1, &bench.kg2, &seeds};
  }
};

Fixture MakeBaselineFixture() {
  datagen::GeneratorConfig g;
  g.seed = 55;
  g.num_matched = 120;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = datagen::NameMode::kShared;
  g.min_degree = 2;
  Fixture f;
  f.bench = datagen::BenchmarkGenerator().Generate(g);
  f.seeds = kg::AlignmentSeeds::Split(f.bench.ground_truth, 5,
                                      /*train=*/3, /*valid=*/1, /*test=*/6);
  return f;
}

TEST(TrainGoldenTest, TransEMatchesLegacyLoop) {
  Fixture f = MakeBaselineFixture();
  baselines::TransEConfig c;
  c.dim = 16;
  c.epochs = 10;
  baselines::TransE model(f.bench.kg1.num_entities(),
                          f.bench.kg1.num_relations(), c);
  const std::vector<int32_t> identity;
  model.Train(baselines::RelationalRows(f.bench.kg1), identity);
  EXPECT_EQ(HashTensor(model.EntityEmbeddings(identity)),
            0x455b7a550e696ef8ULL);
}

TEST(TrainGoldenTest, MTransEMatchesLegacyLoop) {
  // Covers the no-negative-sampling TransE stream (two independent models)
  // plus the hand-rolled linear-mapping task.
  Fixture f = MakeBaselineFixture();
  baselines::MTransE::Config c;
  c.transe.dim = 16;
  c.transe.epochs = 8;
  c.mapping_epochs = 30;
  baselines::MTransE m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0xaa47e28d3b9c6e98ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x4590160074647dadULL);
}

TEST(TrainGoldenTest, TransEdgeMatchesLegacyLoop) {
  // Covers the cumulative-shuffle autograd minibatch path (Adam + the
  // extracted MarginHingeLoss) in the seed-sharing joint space.
  Fixture f = MakeBaselineFixture();
  baselines::TransEdge::Config c;
  c.dim = 16;
  c.epochs = 6;
  c.batch_size = 128;
  baselines::TransEdge m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0x29029c8ac8d162a8ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x082b268fdc8482e6ULL);
}

TEST(TrainGoldenTest, IpTransEMatchesLegacyLoop) {
  // Covers the two interleaved RNG streams of IPTransE: the TransE epoch
  // (OnEpochBegin hook, model RNG) and the 2-hop path sampling (TrainBatch,
  // dedicated path RNG), plus the soft-alignment rounds between Trainer
  // invocations.
  Fixture f = MakeBaselineFixture();
  baselines::IpTransE::Config c;
  c.transe.dim = 16;
  c.path_samples_per_epoch = 500;
  c.iterations = 2;
  c.epochs_per_iteration = 8;
  baselines::IpTransE m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0x5186ed15577de25dULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x91c757fc374cea97ULL);
}

TEST(TrainGoldenTest, SdeaCoreMatchesLegacyLoops) {
  // Covers both SDEA fine-tuning phases end to end: the text-encoder
  // pre-training (fresh-per-epoch shuffle over the replicated seed list,
  // candidate negatives, early stop + restore-best) and the relation
  // module's joint training (cumulative shuffle, eval on valid Hits@1).
  // The kernels give the same bits at every SIMD level, so both levels
  // must reproduce the same hashes.
  datagen::GeneratorConfig g;
  g.seed = 77;
  g.num_matched = 100;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = datagen::NameMode::kShared;
  g.pretrain_sentences = 300;
  datagen::GeneratedBenchmark bench = datagen::BenchmarkGenerator().Generate(g);
  kg::AlignmentSeeds seeds = kg::AlignmentSeeds::Split(bench.ground_truth, 5);

  core::SdeaConfig c;
  c.attribute.text.encoder.dim = 24;
  c.attribute.text.encoder.ff_dim = 48;
  c.attribute.text.encoder.num_layers = 1;
  c.attribute.text.encoder.max_len = 40;
  c.attribute.text.out_dim = 24;
  c.attribute.text.max_epochs = 4;
  c.attribute.text.patience = 2;
  c.attribute.text.negatives_per_pair = 2;
  c.attribute.text.ssl_epochs = 1;
  c.relation.hidden_dim = 16;
  c.relation.joint_dim = 16;
  c.relation.max_epochs = 4;
  c.relation.patience = 2;
  for (const tmath::SimdLevel level :
       {tmath::SimdLevel::kScalar, tmath::SimdLevel::kAvx2}) {
    if (level == tmath::SimdLevel::kAvx2 && !tmath::Avx2Supported()) continue;
    SCOPED_TRACE(tmath::SimdLevelName(level));
    sdea::testing::ScopedSimdLevel simd(level);
    core::SdeaModel model;
    auto report =
        model.Fit(bench.kg1, bench.kg2, seeds, c, bench.pretrain_corpus);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(HashTensor(model.attribute_embeddings1()),
              0x1ab9106927da0f1fULL);
    EXPECT_EQ(HashTensor(model.embeddings1()), 0x4d106aae1ae04bf5ULL);
    EXPECT_EQ(HashTensor(model.embeddings2()), 0xbb5e7549daebfda1ULL);
  }
}

// The remaining baselines pin the KG read each one performs: the
// offset triple union (BootEA, JAPE, KECG), the self-looped union edges
// and their normalization (GCN-Align, KECG), the hashed attribute-name
// count features (GCN-Align, HMAN), per-entity attribute sentences
// (JAPE) and the seed-merged walk graph (RSN4EA).

TEST(TrainGoldenTest, BootEaMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::TransEConfig t;
  t.dim = 16;
  t.epochs = 8;
  baselines::TransEAlign::Config c = baselines::BootEaConfig(t);
  c.bootstrap_rounds = 2;
  c.epochs_per_round = 3;
  c.bootstrap_threshold = 0.3f;
  baselines::TransEAlign m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0x0fdd08e901c11c07ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x8e5553dc21bd39c1ULL);
}

TEST(TrainGoldenTest, JapeMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::Jape::Config c;
  c.transe.dim = 16;
  c.transe.epochs = 8;
  c.attr_dim = 16;
  c.attr_pretrain_epochs = 3;
  baselines::Jape m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0x08998ef9a96b58c5ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0xeaeb71c5215ce753ULL);
}

TEST(TrainGoldenTest, KecgMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::Kecg::Config c;
  c.dim = 16;
  c.transe.epochs = 3;
  c.rounds = 2;
  c.gnn_steps_per_round = 4;
  baselines::Kecg m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0x9986977ecf884087ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0xd05048cbc4404637ULL);
}

TEST(TrainGoldenTest, GcnAlignMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::GcnAlign::Config c = baselines::GcnAlignConfig();
  c.feature_dim = 16;
  c.hidden_dim = 16;
  c.out_dim = 16;
  c.attr_feature_dim = 8;
  c.epochs = 10;
  c.eval_every = 5;
  baselines::GcnAlign m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0xaac31084d78c7172ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0xe2188f9836198207ULL);
}

TEST(TrainGoldenTest, HmanMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::Hman::Config c;
  c.gcn.feature_dim = 16;
  c.gcn.hidden_dim = 16;
  c.gcn.out_dim = 16;
  c.gcn.epochs = 5;
  c.gcn.eval_every = 5;
  c.feature_dim = 16;
  c.channel_dim = 8;
  c.epochs = 10;
  baselines::Hman m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0xc6f54c916c854866ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x77d48e86edefcbf8ULL);
}

TEST(TrainGoldenTest, Rsn4EaMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::Rsn4Ea::Config c;
  c.dim = 16;
  c.walks_per_entity = 1;
  c.epochs = 2;
  baselines::Rsn4Ea m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0xf4f7cfdcb766bd3bULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x92ba33570e3479f5ULL);
}

TEST(TrainGoldenTest, StreamingPresetMatchesGolden) {
  // The d_stream preset at a reduced size: the base graphs' encoded
  // bytes, the update log (arrivals and seeded attribute edits) and the
  // base-state truth pin GenerateStreaming's output row for row.
  datagen::StreamingConfig config = datagen::StreamingPreset().config;
  config.base.num_matched = 150;
  config.num_increments = 4;
  const datagen::StreamingBenchmark stream =
      datagen::GenerateStreaming(config);
  size_t edits = 0;
  for (const incr::UpdateBatch& b : stream.increments) {
    for (const auto* side : {&b.kg1, &b.kg2}) {
      for (const auto& a : side->attributes) {
        if (a.value.find(" (rev ") != std::string::npos) ++edits;
      }
    }
  }
  ASSERT_GT(edits, 0u);
  EXPECT_EQ(HashString(kg::EncodeBinary(stream.kg1)), 0x7085f4550b7da0a1ULL);
  EXPECT_EQ(HashString(kg::EncodeBinary(stream.kg2)), 0xcc307f38cf6c2486ULL);
  EXPECT_EQ(HashString(incr::EncodeUpdateLog(stream.increments)),
            0x0ea19bfb75bd0680ULL);
  EXPECT_EQ(HashBytes(stream.base_truth.data(),
                      stream.base_truth.size() *
                          sizeof(stream.base_truth[0])),
            0x2e78b10c5656a843ULL);
}

}  // namespace
}  // namespace sdea
