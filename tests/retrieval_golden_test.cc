// Golden answers for every nearest-neighbour entry point. Each test hashes
// the (id, similarity bits) answers of one retrieval path on a seeded
// table with no near-duplicate rows, under the exact kernel contract. The
// pinned hashes were captured at commit e47a377, before the five top-k
// paths were folded into core::VectorIndex, by running this file unchanged
// against that tree. A change to query normalization, the rerank pool,
// the exact rescoring or the tie order moves one of these hashes.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/candidate_generator.h"
#include "core/embedding_store.h"
#include "store/candidates.h"
#include "store/quantized_store.h"
#include "tensor/tensor.h"

namespace sdea {
namespace {

constexpr int64_t kRows = 400;
constexpr int64_t kDim = 32;
constexpr int64_t kQueries = 60;
constexpr int64_t kTopK = 10;

/// FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

uint64_t HashNeighbors(
    const std::vector<std::vector<core::EmbeddingStore::Neighbor>>& answers) {
  uint64_t h = kFnvBasis;
  for (const auto& answer : answers) {
    const uint64_t count = answer.size();
    h = Fnv(h, &count, sizeof(count));
    for (const auto& nb : answer) {
      // NaN payloads are outside the exact contract, so no golden may
      // hash one.
      EXPECT_FALSE(std::isnan(nb.similarity)) << "row " << nb.id;
      uint32_t bits = 0;
      std::memcpy(&bits, &nb.similarity, sizeof(bits));
      h = Fnv(h, &nb.id, sizeof(nb.id));
      h = Fnv(h, &bits, sizeof(bits));
    }
  }
  return h;
}

uint64_t HashIds(const std::vector<std::vector<int64_t>>& answers) {
  uint64_t h = kFnvBasis;
  for (const auto& answer : answers) {
    const uint64_t count = answer.size();
    h = Fnv(h, &count, sizeof(count));
    for (int64_t id : answer) h = Fnv(h, &id, sizeof(id));
  }
  return h;
}

Tensor Table(uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandomNormal({kRows, kDim}, 1.0f, &rng);
}

Tensor Queries(uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandomNormal({kQueries, kDim}, 1.0f, &rng);
}

std::vector<std::string> Names() {
  std::vector<std::string> names;
  for (int64_t i = 0; i < kRows; ++i) names.push_back("e" + std::to_string(i));
  return names;
}

std::string TempDir(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

template <typename Store, typename... Options>
uint64_t HashStoreAnswers(const Store& store, const Options&... options) {
  const Tensor queries = Queries(2);
  std::vector<std::vector<core::EmbeddingStore::Neighbor>> answers;
  for (int64_t i = 0; i < kQueries; ++i) {
    answers.push_back(
        store.NearestNeighbors(queries.Row(i), kTopK, options...));
  }
  return HashNeighbors(answers);
}

/// A deliberately lossy PQ codebook, so the rerank pool decides which
/// rows make the answer and the hash pins the pool.
store::PqOptions CoarsePq() {
  store::PqOptions pq;
  pq.num_subspaces = 4;
  pq.num_centroids = 16;
  return pq;
}

core::EmbeddingStore MakeStore() {
  auto store = core::EmbeddingStore::Create(Names(), Table(1));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

store::QuantizedStore MakeQuantizedStore(const std::string& name,
                                         store::Quantization quantization) {
  const std::string dir = TempDir(name);
  store::StoreWriteOptions options;
  options.quantization = quantization;
  options.pq = CoarsePq();
  options.rows_per_shard = 150;  // Three shards.
  SDEA_CHECK(store::QuantizedStore::Write(dir, Names(), Table(1), options)
                 .ok());
  auto opened = store::QuantizedStore::Open(dir);
  SDEA_CHECK(opened.ok());
  return std::move(opened).value();
}

#define EXPECT_GOLDEN(got, want) \
  EXPECT_EQ(got, want) << "got 0x" << std::hex << (got)

TEST(RetrievalGoldenTest, EmbeddingStoreExact) {
  EXPECT_GOLDEN(HashStoreAnswers(MakeStore()), 0x6556930eb9e77a87ULL);
}

TEST(RetrievalGoldenTest, EmbeddingStoreIvf) {
  core::EmbeddingStore store = MakeStore();
  store.BuildIndex();
  EXPECT_GOLDEN(HashStoreAnswers(store), 0x98c60ad21bd5d15eULL);
}

TEST(RetrievalGoldenTest, QuantizedStoreInt8) {
  const store::QuantizedStore qstore =
      MakeQuantizedStore("sdea_golden_int8", store::Quantization::kInt8);
  EXPECT_GOLDEN(HashStoreAnswers(qstore), 0x6556930eb9e77a87ULL);
  store::StoreQueryOptions wide;
  wide.rerank_pool = 64;
  EXPECT_GOLDEN(HashStoreAnswers(qstore, wide), 0x6556930eb9e77a87ULL);
}

TEST(RetrievalGoldenTest, QuantizedStorePq) {
  const store::QuantizedStore qstore =
      MakeQuantizedStore("sdea_golden_pq", store::Quantization::kPq);
  EXPECT_GOLDEN(HashStoreAnswers(qstore), 0xffc08e95c96dab3bULL);
  store::StoreQueryOptions wide;
  wide.rerank_pool = 64;
  EXPECT_GOLDEN(HashStoreAnswers(qstore, wide), 0x4fb7dcb9ee881ca8ULL);
}

TEST(RetrievalGoldenTest, QuantizedStoreAdcOnly) {
  // A snapshot written without fp32 rows answers with raw ADC scores.
  const std::string dir = TempDir("sdea_golden_adc_only");
  store::StoreWriteOptions options;
  options.store_full_precision = false;
  ASSERT_TRUE(
      store::QuantizedStore::Write(dir, Names(), Table(1), options).ok());
  auto qstore = store::QuantizedStore::Open(dir);
  ASSERT_TRUE(qstore.ok());
  EXPECT_GOLDEN(HashStoreAnswers(*qstore), 0xf2f382f24866d3b5ULL);
}

TEST(RetrievalGoldenTest, GenerateCandidates) {
  EXPECT_GOLDEN(
      HashIds(core::GenerateCandidates(Queries(2), Table(1), kTopK)),
      0x533b84c35ccf163bULL);
}

TEST(RetrievalGoldenTest, GenerateCandidatesApprox) {
  EXPECT_GOLDEN(
      HashIds(core::GenerateCandidatesApprox(Queries(2), Table(1), kTopK)),
      0x780fde95e1394825ULL);
}

TEST(RetrievalGoldenTest, GenerateCandidatesCompressed) {
  store::CompressedCandidateOptions int8;
  EXPECT_GOLDEN(HashIds(store::GenerateCandidatesCompressed(
                    Queries(2), Table(1), kTopK, int8)),
                0x533b84c35ccf163bULL);
  store::CompressedCandidateOptions pq;
  pq.quantization = store::Quantization::kPq;
  pq.pq = CoarsePq();
  EXPECT_GOLDEN(HashIds(store::GenerateCandidatesCompressed(
                    Queries(2), Table(1), kTopK, pq)),
                0x3eb3cb0d7c6e77f2ULL);
}

}  // namespace
}  // namespace sdea
