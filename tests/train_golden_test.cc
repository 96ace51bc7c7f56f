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
//
// SdeaTwoLayerCls and the two Relation* cases were captured at 8db3502,
// before the embed-all paths moved off the autograd tape onto the batched
// no-grad forward, by running this file against that tree.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include "baselines/bert_int_lite.h"
#include "baselines/cea.h"
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
#include "core/unsupervised.h"
#include "datagen/generator.h"
#include "datagen/streaming.h"
#include "incr/aligner.h"
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

uint64_t HashPairs(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) {
  std::vector<int64_t> flat;
  for (const auto& [a, b] : pairs) {
    flat.push_back(a);
    flat.push_back(b);
  }
  return HashBytes(flat.data(), flat.size() * sizeof(int64_t));
}

uint64_t HashMetrics(const eval::RankingMetrics& m) {
  const double values[] = {m.hits_at_1, m.hits_at_10, m.mrr,
                           static_cast<double>(m.num_queries)};
  return HashBytes(values, sizeof(values));
}

struct Fixture {
  datagen::GeneratedBenchmark bench;
  kg::AlignmentSeeds seeds;
  baselines::AlignInput input() {
    return baselines::AlignInput{bench.kg1, bench.kg2, seeds};
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
  model.Train(baselines::RelationalRows(f.bench.kg1));
  EXPECT_EQ(HashTensor(model.raw_entities()), 0x455b7a550e696ef8ULL);
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
  // shared nn::MarginHinge) in the seed-sharing joint space.
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

// align_batch's own encoder shape: two transformer blocks and [CLS]
// pooling, which the case above (one block, mean pooling) never runs.
TEST(TrainGoldenTest, SdeaTwoLayerClsMatchesGolden) {
  datagen::GeneratorConfig g;
  g.seed = 78;
  g.num_matched = 80;
  g.kg1_lang_seed = 1;
  g.kg2_lang_seed = 1;
  g.kg2_name_mode = datagen::NameMode::kShared;
  g.pretrain_sentences = 200;
  datagen::GeneratedBenchmark bench = datagen::BenchmarkGenerator().Generate(g);
  kg::AlignmentSeeds seeds = kg::AlignmentSeeds::Split(bench.ground_truth, 6);

  core::SdeaConfig c;
  c.attribute.text.encoder.dim = 16;
  c.attribute.text.encoder.ff_dim = 32;
  c.attribute.text.encoder.num_layers = 2;
  c.attribute.text.encoder.max_len = 24;
  c.attribute.text.out_dim = 16;
  c.attribute.text.pooling = core::SequencePooling::kCls;
  c.attribute.text.max_epochs = 3;
  c.attribute.text.patience = 2;
  c.attribute.text.ssl_epochs = 1;
  c.attribute.text.pretrain.epochs = 4;
  c.relation.hidden_dim = 12;
  c.relation.joint_dim = 12;
  c.relation.max_neighbors = 4;
  c.relation.max_epochs = 3;
  c.relation.patience = 2;
  core::SdeaModel model;
  auto report =
      model.Fit(bench.kg1, bench.kg2, seeds, c, bench.pretrain_corpus);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(HashTensor(model.attribute_embeddings1()),
            0x1f04dac11a9e62aaULL);
  EXPECT_EQ(HashTensor(model.attribute_embeddings2()),
            0x463915d15047fc50ULL);
  EXPECT_EQ(HashTensor(model.embeddings1()), 0x986fff247722d1d2ULL);
  EXPECT_EQ(HashTensor(model.embeddings2()), 0x5d4d03c7f5a49cbbULL);
}

// The relation module's two ablation aggregations (SDEA's own default,
// BiGRU + attention, is pinned above): trained a few epochs on random
// frozen attribute embeddings, then embedded on both sides. max_neighbors
// caps the fixture's hubs.
void ExpectRelationGolden(core::NeighborAggregation aggregation,
                          uint64_t hash1, uint64_t hash2) {
  Fixture f = MakeBaselineFixture();
  Rng rng(21);
  Tensor ha1 = Tensor::RandomNormal({f.bench.kg1.num_entities(), 10}, 1.0f,
                                    &rng);
  Tensor ha2 = Tensor::RandomNormal({f.bench.kg2.num_entities(), 10}, 1.0f,
                                    &rng);
  tmath::L2NormalizeRowsInPlace(&ha1);
  tmath::L2NormalizeRowsInPlace(&ha2);
  core::RelationModuleConfig c;
  c.hidden_dim = 8;
  c.joint_dim = 8;
  c.max_neighbors = 3;
  c.aggregation = aggregation;
  c.max_epochs = 3;
  c.patience = 3;
  c.batch_size = 8;
  core::RelationEmbeddingModule m;
  ASSERT_TRUE(m.Init(f.bench.kg1, f.bench.kg2, 10, c).ok());
  ASSERT_TRUE(m.Train(ha1, ha2, f.seeds).ok());
  EXPECT_EQ(HashTensor(m.ComputeEntityEmbeddings(1, ha1)), hash1);
  EXPECT_EQ(HashTensor(m.ComputeEntityEmbeddings(2, ha2)), hash2);
}

TEST(TrainGoldenTest, RelationMeanPoolingMatchesGolden) {
  ExpectRelationGolden(core::NeighborAggregation::kMeanPooling,
                       0x14b59b4e6354cea8ULL, 0xd573473fc5039a99ULL);
}

TEST(TrainGoldenTest, RelationAttentionOnlyMatchesGolden) {
  ExpectRelationGolden(core::NeighborAggregation::kAttentionOnly,
                       0xf839021b7f298b7cULL, 0x42591a331ac04749ULL);
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

// The cases below were captured at commit a6218b8, before the baselines
// moved onto one union-space scaffold (shared seed merge, union split,
// entity names and mean token vectors, one mutual-nearest scan), by
// running them against that tree. They pin the name-feature paths
// (CEA's fused scores, RDGCN-lite's name-initialized features, the
// BERT-INT name encoder) and the pseudo-seed miner's mutual-nearest pairs.

TEST(TrainGoldenTest, CeaMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::Cea::Config c;
  c.gcn.feature_dim = 16;
  c.gcn.hidden_dim = 16;
  c.gcn.out_dim = 16;
  c.gcn.epochs = 10;
  c.gcn.eval_every = 5;
  c.semantic_dim = 16;
  baselines::Cea m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0xbba91b23954d79d6ULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0xb0ec29b74f1cc5dbULL);
  EXPECT_EQ(HashTensor(m.fused_scores()), 0x392d51d13d658935ULL);
  EXPECT_EQ(HashMetrics(m.Evaluate(f.bench.ground_truth)), 0x68ac918b3ccfbacaULL);
  const double stable = m.StableHits1(f.bench.ground_truth);
  EXPECT_EQ(HashBytes(&stable, sizeof(stable)), 0x48ef977eb05bbf02ULL);
}

TEST(TrainGoldenTest, RdgcnLiteMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::GcnAlign::Config c = baselines::RdgcnLiteConfig();
  c.feature_dim = 16;
  c.hidden_dim = 16;
  c.out_dim = 16;
  c.epochs = 10;
  c.eval_every = 5;
  baselines::GcnAlign m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0xeb34d62c4ad1cf0aULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x9ef2bc02bc9410c8ULL);
}

TEST(TrainGoldenTest, BertIntLiteMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  baselines::BertIntLite::Config c;
  c.text.encoder.dim = 16;
  c.text.encoder.ff_dim = 32;
  c.text.encoder.num_layers = 1;
  c.text.encoder.max_len = 16;
  c.text.out_dim = 16;
  c.text.max_epochs = 3;
  c.text.patience = 2;
  c.text.negatives_per_pair = 2;
  c.text.ssl_epochs = 1;
  c.text.pretrain.epochs = 3;
  baselines::BertIntLite m(c);
  ASSERT_TRUE(m.Fit(f.input()).ok());
  EXPECT_EQ(HashTensor(m.embeddings1()), 0xdb0ce78f59997cadULL);
  EXPECT_EQ(HashTensor(m.embeddings2()), 0x4316b36c5c6e7d20ULL);
}

TEST(TrainGoldenTest, MinePseudoSeedsMatchesGolden) {
  Fixture f = MakeBaselineFixture();
  core::AttributeModuleConfig attr;
  attr.text.encoder.dim = 16;
  attr.text.encoder.num_layers = 1;
  attr.text.encoder.ff_dim = 32;
  attr.text.encoder.max_len = 24;
  attr.text.out_dim = 16;
  attr.text.pretrain.epochs = 3;
  core::UnsupervisedOptions opt;
  opt.min_similarity = 0.5f;
  auto pseudo = core::MinePseudoSeeds(f.bench.kg1, f.bench.kg2, attr, opt,
                                      f.bench.pretrain_corpus);
  ASSERT_TRUE(pseudo.ok()) << pseudo.status().ToString();
  EXPECT_EQ(pseudo->accepted, 94);
  EXPECT_EQ(HashPairs(pseudo->seeds.train), 0x4cf9c58962bbabc7ULL);
  EXPECT_EQ(HashPairs(pseudo->seeds.valid), 0x5b136a4e785c5d2cULL);
}

// Captured at commit a654bcc, before the incremental aligner's repair and
// bootstrap passes moved from their own float dot product onto
// kernels::Gemv, by running this case against that tree. The run both
// promotes and demotes pairs, so a flipped repair or bootstrap decision
// changes the promoted set and every embedding trained after it.
TEST(TrainGoldenTest, IncrementalAlignerMatchesGolden) {
  datagen::StreamingConfig config = datagen::StreamingPreset().config;
  config.base.num_matched = 300;
  config.num_increments = 10;
  datagen::StreamingBenchmark stream = datagen::GenerateStreaming(config);
  const size_t n = stream.base_truth.size();
  const std::vector<std::pair<kg::EntityId, kg::EntityId>> seeds(
      stream.base_truth.begin(),
      stream.base_truth.begin() + static_cast<std::ptrdiff_t>(n * 3 / 10));

  // The repository benchmark's stream_incr settings at fewer base epochs.
  incr::IncrementalAlignerOptions opts;
  opts.dim = 48;
  opts.base_epochs = 60;
  opts.incr_epochs = 15;
  opts.affected_frac_cap = 0.10;
  opts.pull_lr = 0.01f;
  opts.k_hops = 2;
  incr::IncrementalAligner aligner(&stream.kg1, &stream.kg2, opts);
  ASSERT_TRUE(aligner.FitBase(seeds).ok());
  int64_t promoted = 0;
  int64_t demoted = 0;
  for (const incr::UpdateBatch& batch : stream.increments) {
    incr::ApplyUpdate(batch.kg1, &stream.kg1);
    incr::ApplyUpdate(batch.kg2, &stream.kg2);
    auto rep = aligner.ProcessIncrement();
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    promoted += rep->promoted;
    demoted += rep->demoted;
  }
  auto pairs = aligner.promoted_pairs();
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(promoted, 42);
  EXPECT_EQ(demoted, 27);
  EXPECT_EQ(HashTensor(aligner.embeddings1()), 0x986b7d255a72688aULL);
  EXPECT_EQ(HashTensor(aligner.embeddings2()), 0x4c1a3c015d9180e3ULL);
  EXPECT_EQ(HashPairs(pairs), 0xd5756b5d87179162ULL);
}

}  // namespace
}  // namespace sdea
