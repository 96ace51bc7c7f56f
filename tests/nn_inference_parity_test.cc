// Parity of the embed-all paths with the per-entity autograd tape.
// RelationEmbeddingModule::ComputeEntityEmbeddings and the nn Infer
// forwards under it batch many sequences per call off the tape;
// TextAlignmentEncoder::ComputeAllEmbeddings shards the per-entity graphs
// across the pool. Every output row must have the bits the per-entity
// graph gives (ForwardEntity, EncodeEntity with training = false), at
// every chunking, thread count and SIMD level.
#include <cstring>
#include <functional>
#include <memory>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "base/strings.h"
#include "base/threadpool.h"
#include "core/relation_embedding.h"
#include "core/text_alignment_encoder.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "testing/kernel_config.h"

namespace sdea {
namespace {

// Overwrites every parameter with N(0, stddev) draws, so every bias, gain
// and weight takes part in the arithmetic.
void Randomize(nn::Module* m, uint64_t seed, float stddev = 0.5f) {
  Rng rng(seed);
  for (Parameter* p : m->Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      p->value[i] = static_cast<float>(rng.Normal(0.0, stddev));
    }
  }
}

// Row `r` of `got` holds the bits of `want[0, cols)`.
void ExpectRowBits(const Tensor& got, int64_t r, const float* want,
                   int64_t cols, const std::string& what) {
  ASSERT_EQ(got.dim(1), cols) << what;
  EXPECT_EQ(std::memcmp(got.data() + r * cols, want,
                        static_cast<size_t>(cols) * sizeof(float)),
            0)
      << what << ", row " << r;
}

// Runs `body` at every SIMD level the host has, at 1 and at 4 pool
// threads, and restores the default pool afterwards.
void ForEachKernelConfig(const std::function<void()>& body) {
  for (const tmath::SimdLevel level :
       {tmath::SimdLevel::kScalar, tmath::SimdLevel::kAvx2}) {
    if (level == tmath::SimdLevel::kAvx2 && !tmath::Avx2Supported()) continue;
    sdea::testing::ScopedSimdLevel simd(level);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(StrFormat("simd=%s threads=%d",
                             tmath::SimdLevelName(level), threads));
      base::ThreadPool::SetGlobalNumThreads(threads);
      body();
    }
  }
  base::ThreadPool::SetGlobalNumThreads(
      base::ThreadPool::DefaultNumThreads());
}

std::vector<int64_t> OffsetsOf(const std::vector<int64_t>& lengths) {
  std::vector<int64_t> offsets{0};
  for (int64_t len : lengths) offsets.push_back(offsets.back() + len);
  return offsets;
}

// Rows [begin, end) of `x` as their own tensor.
Tensor Rows(const Tensor& x, int64_t begin, int64_t end) {
  const int64_t cols = x.dim(1);
  Tensor out({end - begin, cols});
  std::copy(x.data() + begin * cols, x.data() + end * cols, out.data());
  return out;
}

// Every row of `packed` against `tape(begin, end)`, the tape forward of
// one sequence alone (rows [begin, end) of the packed input).
void ExpectSegmentsMatch(
    const Tensor& packed, const std::vector<int64_t>& offsets,
    const std::function<Tensor(int64_t begin, int64_t end)>& tape,
    const std::string& what) {
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    const Tensor want = tape(offsets[s], offsets[s + 1]);
    for (int64_t t = 0; t < want.dim(0); ++t) {
      ExpectRowBits(packed, offsets[s] + t, want.data() + t * want.dim(1),
                    want.dim(1), what + " sequence " + std::to_string(s));
    }
  }
}

// Lengths 1 (a one-step sequence) up to 7, out of length order.
const std::vector<int64_t> kLengths = {3, 1, 7, 1, 4, 7, 2};

TEST(InferenceParityTest, LayersMatchForward) {
  Rng rng(1);
  nn::Linear linear("lin", 5, 7, &rng);
  std::vector<std::unique_ptr<nn::Mlp>> mlps;
  for (const nn::Activation act :
       {nn::Activation::kRelu, nn::Activation::kTanh,
        nn::Activation::kSigmoid, nn::Activation::kNone}) {
    mlps.push_back(std::make_unique<nn::Mlp>(
        "mlp", std::vector<int64_t>{5, 6, 4, 3}, act, &rng));
    Randomize(mlps.back().get(), 10 + mlps.size());
  }
  Randomize(&linear, 2);
  const Tensor x = Tensor::RandomNormal({6, 5}, 1.0f, &rng);
  ForEachKernelConfig([&] {
    // Each row alone through the tape.
    for (int64_t r = 0; r < x.dim(0); ++r) {
      Graph g;
      const NodeId xr = g.Input(Rows(x, r, r + 1));
      ExpectRowBits(linear.Infer(x), r,
                    g.Value(linear.Forward(&g, xr)).data(), 7, "linear");
      for (const auto& mlp : mlps) {
        ExpectRowBits(mlp->Infer(x), r, g.Value(mlp->Forward(&g, xr)).data(),
                      3, "mlp");
      }
    }
  });
}

TEST(InferenceParityTest, PackedGruMatchesPerSequenceForward) {
  Rng rng(5);
  // Odd widths reach the matmul kernels' column tails.
  nn::Gru gru("gru", 5, 7, &rng);
  nn::BiGru bigru("bigru", 5, 7, &rng);
  Randomize(&gru, 6);
  Randomize(&bigru, 7);
  const std::vector<int64_t> offsets = OffsetsOf(kLengths);
  const Tensor x = Tensor::RandomNormal({offsets.back(), 5}, 1.0f, &rng);
  ForEachKernelConfig([&] {
    for (const bool reverse : {false, true}) {
      ExpectSegmentsMatch(
          gru.InferPacked(x, offsets, reverse), offsets,
          [&](int64_t begin, int64_t end) {
            Graph g;
            return g.Value(gru.Forward(&g, g.Input(Rows(x, begin, end)),
                                       reverse));
          },
          reverse ? "gru reverse" : "gru");
    }
    ExpectSegmentsMatch(
        bigru.InferPacked(x, offsets), offsets,
        [&](int64_t begin, int64_t end) {
          Graph g;
          return g.Value(bigru.Forward(&g, g.Input(Rows(x, begin, end))));
        },
        "bigru");
  });
}

// A KG of `n` entities: entity 0 is a hub with more neighbours than any
// cap below, entity n - 1 has none (the self fallback), and the others
// link to one to three random entities.
kg::KnowledgeGraph MakeKg(int64_t n, uint64_t seed) {
  kg::KnowledgeGraph kg;
  Rng rng(seed);
  for (int64_t e = 0; e < n; ++e) kg.AddEntity("e" + std::to_string(e));
  const kg::RelationId rel = kg.AddRelation("r");
  for (int64_t e = 1; e < n - 1; ++e) kg.AddRelationalTriple(0, rel, e);
  for (int64_t e = 1; e < n - 1; ++e) {
    const int64_t edges = 1 + static_cast<int64_t>(rng.UniformInt(3));
    for (int64_t k = 0; k < edges; ++k) {
      kg.AddRelationalTriple(
          e, rel, static_cast<kg::EntityId>(rng.UniformInt(
                      static_cast<uint64_t>(n - 1))));
    }
  }
  return kg;
}

class RelationParityTest
    : public ::testing::TestWithParam<core::NeighborAggregation> {};

TEST_P(RelationParityTest, EmbedAllMatchesForwardEntity) {
  constexpr int64_t kAttrDim = 6;
  // Below, at and above one chunk (the last with a partial chunk).
  constexpr int64_t kChunk = core::RelationEmbeddingModule::kEmbedChunk;
  for (const int64_t n : {kChunk - 7, kChunk, 2 * kChunk + 5}) {
    SCOPED_TRACE(StrFormat("n=%lld", static_cast<long long>(n)));
    const kg::KnowledgeGraph kg1 = MakeKg(n, 20);
    const kg::KnowledgeGraph kg2 = MakeKg(n + 3, 21);
    core::RelationModuleConfig c;
    c.hidden_dim = 7;
    c.joint_dim = 5;
    c.max_neighbors = 4;
    c.aggregation = GetParam();
    core::RelationEmbeddingModule m;
    ASSERT_TRUE(m.Init(kg1, kg2, kAttrDim, c).ok());
    ASSERT_EQ(m.neighbor_list(1, 0).size(), 4u);  // The capped hub.
    ASSERT_EQ(m.neighbor_list(1, static_cast<kg::EntityId>(n - 1)),
              std::vector<kg::EntityId>{static_cast<kg::EntityId>(n - 1)});
    Randomize(&m, 22);
    Rng rng(23);
    const Tensor ha[2] = {Tensor::RandomNormal({n, kAttrDim}, 1.0f, &rng),
                          Tensor::RandomNormal({n + 3, kAttrDim}, 1.0f, &rng)};
    ForEachKernelConfig([&] {
      for (int side = 1; side <= 2; ++side) {
        const Tensor& ha_side = ha[side - 1];
        const Tensor got = m.ComputeEntityEmbeddings(side, ha_side);
        ASSERT_EQ(got.dim(0), ha_side.dim(0));
        for (int64_t e = 0; e < ha_side.dim(0); ++e) {
          // The per-entity reference: [Hr; normalized Ha; Hm].
          Graph g;
          NodeId hr, hm;
          m.ForwardEntity(&g, side, static_cast<kg::EntityId>(e), ha_side,
                          &hr, &hm);
          Tensor ha_row = Rows(ha_side, e, e + 1);
          tmath::L2NormalizeRowsInPlace(&ha_row);
          std::vector<float> want(g.Value(hr).data(),
                                  g.Value(hr).data() + c.hidden_dim);
          want.insert(want.end(), ha_row.data(), ha_row.data() + kAttrDim);
          want.insert(want.end(), g.Value(hm).data(),
                      g.Value(hm).data() + c.joint_dim);
          ExpectRowBits(got, e, want.data(), m.entity_embedding_dim(),
                        "side " + std::to_string(side));
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Aggregations, RelationParityTest,
    ::testing::Values(core::NeighborAggregation::kBiGruAttention,
                      core::NeighborAggregation::kMeanPooling,
                      core::NeighborAggregation::kAttentionOnly));

// `n` entity texts over a small vocabulary. Text 0 is empty, so it encodes
// to [CLS] alone (T = 1), and text 1 runs past max_len and is truncated.
std::vector<std::string> MakeTexts(int64_t n, uint64_t seed) {
  static const char* const kWords[] = {"red",  "apple", "blue", "whale",
                                       "tree", "sun",   "cat",  "snow",
                                       "road", "pond",  "city", "rock"};
  Rng rng(seed);
  std::vector<std::string> texts;
  for (int64_t e = 0; e < n; ++e) {
    int64_t words = 1 + static_cast<int64_t>(rng.UniformInt(6));
    if (e <= 1) words = e == 0 ? 0 : 40;
    std::string text;
    for (int64_t w = 0; w < words; ++w) {
      text += std::string(w > 0 ? " " : "") + kWords[rng.UniformInt(12)];
    }
    texts.push_back(text);
  }
  return texts;
}

struct TextCase {
  core::SequencePooling pooling;
  int64_t layers;
};

class TextParityTest : public ::testing::TestWithParam<TextCase> {};

TEST_P(TextParityTest, EmbedAllMatchesEncodeEntity) {
  core::TextEncoderConfig c;
  c.encoder.dim = 12;
  c.encoder.num_heads = 2;
  c.encoder.num_layers = GetParam().layers;
  c.encoder.ff_dim = 10;
  c.encoder.max_len = 9;
  c.out_dim = 5;
  c.pooling = GetParam().pooling;
  c.tokenizer.num_merges = 32;
  c.pretrain.epochs = 1;
  core::TextAlignmentEncoder encoder;
  ASSERT_TRUE(encoder.Init(MakeTexts(21, 30), MakeTexts(6, 31), c).ok());
  ASSERT_EQ(encoder.token_ids(1, 0).size(), 1u);
  ASSERT_EQ(static_cast<int64_t>(encoder.token_ids(1, 1).size()),
            c.encoder.max_len);
  Randomize(&encoder, 32);
  ForEachKernelConfig([&] {
    for (int side = 1; side <= 2; ++side) {
      const Tensor got = encoder.ComputeAllEmbeddings(side);
      ASSERT_EQ(got.dim(0), encoder.num_entities(side));
      for (int64_t e = 0; e < got.dim(0); ++e) {
        Graph g;
        const NodeId node =
            encoder.EncodeEntity(&g, side, static_cast<kg::EntityId>(e),
                                 /*training=*/false, /*rng=*/nullptr);
        ExpectRowBits(got, e, g.Value(node).data(), c.out_dim,
                      "side " + std::to_string(side));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    PoolingsAndDepths, TextParityTest,
    ::testing::Values(TextCase{core::SequencePooling::kMean, 1},
                      TextCase{core::SequencePooling::kMean, 2},
                      TextCase{core::SequencePooling::kCls, 1},
                      TextCase{core::SequencePooling::kCls, 2}));

}  // namespace
}  // namespace sdea
