// End-to-end QuantizedStore: write → mmap-open → query, the exactness
// contract against the full-precision EmbeddingStore, compression
// accounting, and fault injection on the open path.
#include "store/quantized_store.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "base/fileio.h"
#include "base/rng.h"
#include "core/embedding_store.h"
#include "obs/registry.h"
#include "testing/faults.h"
#include "tensor/tensor.h"

namespace sdea::store {
namespace {

std::string TempDir(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

Tensor RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Tensor t({n, d});
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  return t;
}

// How many ADC scans store.adc_us has recorded in this process.
int64_t AdcScans() {
  for (const auto& [name, histogram] :
       obs::MetricsRegistry::Default()->Snapshot().histograms) {
    if (name == "store.adc_us") return histogram.count();
  }
  return 0;
}

std::vector<std::string> Names(int64_t n) {
  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) {
    names.push_back("entity/" + std::to_string(i));
  }
  return names;
}

TEST(QuantizedStoreTest, WriteOpenRoundTripInt8) {
  const std::string dir = TempDir("sdea_qstore_int8");
  const int64_t n = 300, d = 32;
  const Tensor rows = RandomRows(n, d, 10);
  StoreWriteOptions options;
  options.rows_per_shard = 128;  // Forces 3 shards.
  ASSERT_TRUE(QuantizedStore::Write(dir, Names(n), rows, options).ok());

  auto open = QuantizedStore::Open(dir);
  ASSERT_TRUE(open.ok()) << open.status().message();
  EXPECT_EQ(open->size(), n);
  EXPECT_EQ(open->dim(), d);
  EXPECT_TRUE(open->has_full_precision());
  EXPECT_EQ(open->name(0), "entity/0");
  EXPECT_EQ(open->name(200), "entity/200");  // Crosses a shard boundary.
  EXPECT_EQ(open->name(n - 1), "entity/299");

  // fp32 rows must be byte-identical to EmbeddingStore's normalization.
  auto reference = core::EmbeddingStore::Create(Names(n), rows);
  ASSERT_TRUE(reference.ok());
  for (int64_t id : {0L, 127L, 128L, 255L, 256L, 299L}) {
    const float* got = open->row(id);
    ASSERT_NE(got, nullptr);
    for (int64_t j = 0; j < d; ++j) {
      EXPECT_EQ(got[j], reference->embeddings().data()[id * d + j])
          << "row " << id << " component " << j;
    }
  }

  // The headline memory claim: int8 codes are exactly dim bytes/row — a
  // 4x reduction over the fp32 region.
  EXPECT_EQ(open->compressed_bytes(), n * d);
  EXPECT_EQ(open->full_precision_bytes(), n * d * 4);
}

TEST(QuantizedStoreTest, RerankReproducesFullPrecisionTop1) {
  // The acceptance contract: ADC candidate generation + exact rerank
  // returns the SAME top-1 (name, id, bitwise score) as the
  // full-precision store, for every query in a held-out batch.
  const std::string dir = TempDir("sdea_qstore_exact");
  const int64_t n = 500, d = 64, queries = 40;
  const Tensor rows = RandomRows(n, d, 20);
  ASSERT_TRUE(QuantizedStore::Write(dir, Names(n), rows, {}).ok());
  auto qstore = QuantizedStore::Open(dir);
  ASSERT_TRUE(qstore.ok());
  auto reference = core::EmbeddingStore::Create(Names(n), rows);
  ASSERT_TRUE(reference.ok());

  const Tensor probe = RandomRows(queries, d, 77);
  int64_t hits10_agree = 0;
  for (int64_t i = 0; i < queries; ++i) {
    const Tensor q = probe.Row(i);
    const auto full = reference->NearestNeighbors(q, 10);
    const auto quant = qstore->NearestNeighbors(q, 10);
    ASSERT_EQ(full.size(), quant.size());
    // Top-1 must match exactly — id, name, and the float score bit.
    EXPECT_EQ(quant[0].id, full[0].id) << "query " << i;
    EXPECT_EQ(quant[0].name, full[0].name) << "query " << i;
    EXPECT_EQ(quant[0].similarity, full[0].similarity) << "query " << i;
    // Documented Hits@10 tolerance: the ADC pool may miss deep-tail
    // entries; >= 9 of the full-precision top-10 survive per query here.
    std::set<int64_t> full_ids, quant_ids;
    for (const auto& nb : full) full_ids.insert(nb.id);
    for (const auto& nb : quant) quant_ids.insert(nb.id);
    int64_t overlap = 0;
    for (int64_t id : full_ids) overlap += quant_ids.count(id);
    EXPECT_GE(overlap, 9) << "query " << i;
    if (overlap == 10) ++hits10_agree;
  }
  // In aggregate nearly all queries agree on the full top-10 too.
  EXPECT_GE(hits10_agree, queries * 9 / 10);
}

TEST(QuantizedStoreTest, AdcOnlyModeAndCandidates) {
  const std::string dir = TempDir("sdea_qstore_adconly");
  const int64_t n = 200, d = 16;
  const Tensor rows = RandomRows(n, d, 40);
  StoreWriteOptions options;
  options.store_full_precision = false;
  ASSERT_TRUE(QuantizedStore::Write(dir, Names(n), rows, options).ok());
  auto qstore = QuantizedStore::Open(dir);
  ASSERT_TRUE(qstore.ok()) << qstore.status().message();
  EXPECT_FALSE(qstore->has_full_precision());
  EXPECT_EQ(qstore->row(0), nullptr);
  EXPECT_EQ(qstore->full_precision_bytes(), 0);

  const Tensor q = RandomRows(1, d, 41).Row(0);
  const int64_t scans_before = AdcScans();
  // Without fp32 the rerank silently degrades to ADC scores.
  const auto adc = qstore->NearestNeighbors(q, 5);
  ASSERT_EQ(adc.size(), 5u);
  const auto pool = qstore->NearestNeighbors(q, 20);
  ASSERT_EQ(pool.size(), 20u);
  EXPECT_TRUE(qstore->NearestNeighbors(q, 0).empty());
  // One scan per answered query: store.adc_us's count is the query count.
  EXPECT_EQ(AdcScans() - scans_before, 2);
  // The ADC top-k heads the wider ADC answer in the same order.
  for (size_t i = 0; i < adc.size(); ++i) {
    EXPECT_EQ(pool[i].id, adc[i].id);
  }
}

TEST(QuantizedStoreTest, EmptyAndEdgeCases) {
  const std::string dir = TempDir("sdea_qstore_empty");
  ASSERT_TRUE(
      QuantizedStore::Write(dir, {}, Tensor({0, 8}), {}).ok());
  auto qstore = QuantizedStore::Open(dir);
  ASSERT_TRUE(qstore.ok()) << qstore.status().message();
  EXPECT_EQ(qstore->size(), 0);
  EXPECT_EQ(qstore->dim(), 8);
  const Tensor q = RandomRows(1, 8, 1).Row(0);
  EXPECT_TRUE(qstore->NearestNeighbors(q, 5).empty());

  // Duplicate names are rejected before anything lands on disk.
  EXPECT_FALSE(QuantizedStore::Write(TempDir("sdea_qstore_dup"),
                                     {"a", "a"}, RandomRows(2, 8, 2), {})
                   .ok());
}

TEST(QuantizedStoreTest, OpenFaultsAndCorruptionAreClean) {
  const std::string dir = TempDir("sdea_qstore_faults");
  const int64_t n = 50, d = 8;
  ASSERT_TRUE(
      QuantizedStore::Write(dir, Names(n), RandomRows(n, d, 50), {}).ok());

  // Missing manifest: IoError from the read layer.
  EXPECT_EQ(QuantizedStore::Open(TempDir("sdea_qstore_nowhere"))
                .status()
                .code(),
            StatusCode::kIoError);

  // Injected mmap failure on the shard file (the kMap hook).
  {
    sdea::testing::CountdownFaultInjector injector{sdea::testing::FaultPlan{
        .op = FaultInjector::FileOp::kMap, .repeat = true}};
    ScopedFaultInjector scope(&injector);
    auto open = QuantizedStore::Open(dir);
    ASSERT_FALSE(open.ok());
    EXPECT_EQ(open.status().code(), StatusCode::kIoError);
    EXPECT_GE(injector.faults_injected(), 1);
  }

  // A shard that shrinks after the manifest was written must be caught
  // by the size cross-check.
  auto shard_blob = ReadFileToString(ShardPath(dir, 0));
  ASSERT_TRUE(shard_blob.ok());
  ASSERT_TRUE(WriteStringToFile(ShardPath(dir, 0),
                                shard_blob->substr(0, shard_blob->size() / 2))
                  .ok());
  auto open = QuantizedStore::Open(dir);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kInvalidArgument);
  // Restore for any later run reusing the directory.
  ASSERT_TRUE(WriteStringToFile(ShardPath(dir, 0), *shard_blob).ok());

  // Healthy opens bump the obs counters.
  const uint64_t opens_before = obs::MetricsRegistry::Default()
                                    ->GetCounter("store.opens")
                                    ->Value();
  ASSERT_TRUE(QuantizedStore::Open(dir).ok());
  EXPECT_GT(obs::MetricsRegistry::Default()
                ->GetCounter("store.opens")
                ->Value(),
            opens_before);
}

}  // namespace
}  // namespace sdea::store
