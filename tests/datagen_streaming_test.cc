// datagen streaming preset: the base state plus the replayed increments
// reconverges to the full generated benchmark, per-increment ground truth
// resolves exactly when its entities arrive, and the whole stream is
// bit-reproducible from the config.
#include "datagen/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "incr/update_log.h"

namespace sdea::datagen {
namespace {

StreamingConfig SmallConfig() {
  StreamingConfig config = StreamingPreset().config;
  config.base.num_matched = 120;
  config.base.pretrain_sentences = 0;
  config.num_increments = 3;
  config.stream_frac = 0.3;
  return config;
}

TEST(StreamingTest, ReplayReconvergesToTheFullBenchmark) {
  const StreamingConfig config = SmallConfig();
  StreamingBenchmark stream = GenerateStreaming(config);
  const GeneratedBenchmark full = BenchmarkGenerator().Generate(config.base);

  ASSERT_EQ(static_cast<int64_t>(stream.increments.size()),
            config.num_increments);
  EXPECT_LT(stream.kg1.num_entities(), full.kg1.num_entities());
  // Schema arrives with the base: only facts stream in.
  EXPECT_EQ(stream.kg1.num_relations(), full.kg1.num_relations());
  EXPECT_EQ(stream.kg2.num_attributes(), full.kg2.num_attributes());

  int64_t streamed_rel = 0;
  for (const incr::UpdateBatch& b : stream.increments) {
    EXPECT_FALSE(b.empty());
    streamed_rel += static_cast<int64_t>(b.kg1.relational.size() +
                                         b.kg2.relational.size());
    incr::ApplyUpdate(b.kg1, &stream.kg1);
    incr::ApplyUpdate(b.kg2, &stream.kg2);
  }
  EXPECT_GT(streamed_rel, 0);

  // Same entities and relational facts as the full world; attribute rows
  // may exceed the full graph's because edits re-state revised values.
  EXPECT_EQ(stream.kg1.num_entities(), full.kg1.num_entities());
  EXPECT_EQ(stream.kg2.num_entities(), full.kg2.num_entities());
  EXPECT_EQ(stream.kg1.Snapshot().num_relational_triples(),
            full.kg1.Snapshot().num_relational_triples());
  EXPECT_EQ(stream.kg2.Snapshot().num_relational_triples(),
            full.kg2.Snapshot().num_relational_triples());
  EXPECT_GE(stream.kg1.Snapshot().num_attribute_triples(),
            full.kg1.Snapshot().num_attribute_triples());
  for (kg::EntityId e = 0; e < full.kg1.num_entities(); ++e) {
    ASSERT_TRUE(stream.kg1.FindEntity(full.kg1.entity_name(e)).ok());
  }
}

TEST(StreamingTest, TruthResolvesExactlyWhenEntitiesArrive) {
  StreamingBenchmark stream = GenerateStreaming(SmallConfig());

  // Base truth resolves against the base graphs by construction.
  EXPECT_GT(stream.base_truth.size(), 0u);
  for (const auto& [a, b] : stream.base_truth) {
    EXPECT_LT(a, stream.kg1.num_entities());
    EXPECT_LT(b, stream.kg2.num_entities());
  }

  size_t streamed_pairs = 0;
  for (size_t i = 0; i < stream.increments.size(); ++i) {
    // Pairs of a future increment are not yet resolvable...
    const auto early =
        ResolveNamePairs(stream.kg1, stream.kg2, stream.truth_names[i]);
    EXPECT_TRUE(early.empty()) << "increment " << i;
    incr::ApplyUpdate(stream.increments[i].kg1, &stream.kg1);
    incr::ApplyUpdate(stream.increments[i].kg2, &stream.kg2);
    // ...and resolve completely once their batch lands.
    const auto now =
        ResolveNamePairs(stream.kg1, stream.kg2, stream.truth_names[i]);
    EXPECT_EQ(now.size(), stream.truth_names[i].size());
    streamed_pairs += now.size();
  }
  EXPECT_GT(streamed_pairs, 0u);
}

TEST(StreamingTest, StreamIsBitReproducible) {
  const StreamingConfig config = SmallConfig();
  StreamingBenchmark a = GenerateStreaming(config);
  StreamingBenchmark b = GenerateStreaming(config);
  EXPECT_EQ(incr::EncodeUpdateLog(a.increments),
            incr::EncodeUpdateLog(b.increments));
  EXPECT_EQ(a.base_truth, b.base_truth);
  EXPECT_EQ(a.kg1.num_entities(), b.kg1.num_entities());
  EXPECT_EQ(a.kg1.Snapshot().num_relational_triples(),
            b.kg1.Snapshot().num_relational_triples());

  // A different stream seed carves the same world differently.
  StreamingConfig reseeded = config;
  reseeded.stream_seed += 1;
  StreamingBenchmark c = GenerateStreaming(reseeded);
  EXPECT_NE(incr::EncodeUpdateLog(a.increments),
            incr::EncodeUpdateLog(c.increments));
}

TEST(StreamingTest, PresetIsRegistered) {
  const StreamingSpec spec = StreamingPreset();
  EXPECT_EQ(spec.id, "d_stream");
  EXPECT_EQ(spec.config.num_increments, 10);
  EXPECT_GT(spec.config.stream_frac, 0.0);
}

}  // namespace
}  // namespace sdea::datagen
