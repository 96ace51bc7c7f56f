#include "text/pretrain.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "testing/kernel_config.h"

namespace sdea::text {
namespace {

using tmath::SimdLevel;

// A corpus where "sun"/"sol" and "moon"/"luna" always co-occur (a tiny
// comparable corpus), while "rock" floats alone.
std::vector<std::string> ParallelCorpus() {
  std::vector<std::string> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back("sun sol bright day");
    corpus.push_back("moon luna dark night");
    corpus.push_back("rock stone heavy");
  }
  return corpus;
}

TEST(PretrainTest, RequiresTrainedTokenizer) {
  SubwordTokenizer tok;
  CooccurrencePretrainer pre;
  auto r = pre.Train({"a b"}, tok, PretrainConfig{});
  EXPECT_FALSE(r.ok());
}

TEST(PretrainTest, EmptyCorpusFails) {
  SubwordTokenizer tok;
  ASSERT_TRUE(tok.Train({"a b c"}, TokenizerConfig{}).ok());
  CooccurrencePretrainer pre;
  EXPECT_FALSE(pre.Train({}, tok, PretrainConfig{}).ok());
}

TEST(PretrainTest, OutputShapeMatchesVocab) {
  SubwordTokenizer tok;
  auto corpus = ParallelCorpus();
  ASSERT_TRUE(tok.Train(corpus, TokenizerConfig{}).ok());
  PretrainConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 4;
  CooccurrencePretrainer pre;
  auto r = pre.Train(corpus, tok, cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->shape(),
            (std::vector<int64_t>{tok.vocab().size(), 16}));
}

TEST(PretrainTest, CooccurringWordsEndUpCloser) {
  SubwordTokenizer tok;
  auto corpus = ParallelCorpus();
  TokenizerConfig tc;
  tc.num_merges = 512;
  ASSERT_TRUE(tok.Train(corpus, tc).ok());
  PretrainConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 24;
  CooccurrencePretrainer pre;
  auto r = pre.Train(corpus, tok, cfg);
  ASSERT_TRUE(r.ok());
  const Tensor& table = *r;
  auto vec = [&](const std::string& w) {
    return table.Row(tok.vocab().GetId(w));
  };
  // Words from the same sentences must be closer than words from different
  // sentences.
  const float same = tmath::CosineSimilarity(vec("sun"), vec("sol"));
  const float diff = tmath::CosineSimilarity(vec("sun"), vec("luna"));
  EXPECT_GT(same, diff);
}

TEST(PretrainTest, Deterministic) {
  SubwordTokenizer tok;
  auto corpus = ParallelCorpus();
  ASSERT_TRUE(tok.Train(corpus, TokenizerConfig{}).ok());
  PretrainConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 3;
  CooccurrencePretrainer pre;
  auto a = pre.Train(corpus, tok, cfg);
  auto b = pre.Train(corpus, tok, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int64_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i], (*b)[i]);
  }
}

// 300 texts of 4-11 words drawn from 120 syllable words, numbers and
// accented words: enough distinct tokens and pairs that every row of the
// table takes many steps.
std::vector<std::string> MixedCorpus() {
  const char* syllables[] = {"ka", "ru", "mi", "to", "sel", "na", "por",
                             "vi", "\xc3\xa9", "lo", "den", "qu"};
  Rng rng(2026);
  std::vector<std::string> words;
  for (int i = 0; i < 120; ++i) {
    std::string w;
    const int64_t parts = rng.UniformRange(1, 4);
    for (int64_t p = 0; p < parts; ++p) {
      w += syllables[rng.UniformInt(std::size(syllables))];
    }
    words.push_back(w);
  }
  for (int i = 0; i < 10; ++i) words.push_back(std::to_string(1900 + 7 * i));
  std::vector<std::string> corpus;
  for (int t = 0; t < 300; ++t) {
    std::string text;
    const int64_t n = rng.UniformRange(4, 11);
    for (int64_t k = 0; k < n; ++k) {
      // Skewed draws, so some pairs are far more frequent than others.
      const uint64_t r = rng.UniformInt(words.size());
      text += words[rng.UniformInt(r + 1)];
      text += ' ';
    }
    corpus.push_back(text);
  }
  return corpus;
}

uint64_t HashTable(const Tensor& t) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the float bytes.
  const auto* b = reinterpret_cast<const unsigned char*>(t.data());
  for (size_t i = 0; i < static_cast<size_t>(t.size()) * sizeof(float); ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// The table's bits, captured before the per-pair update moved into
// tmath::kernels::GloveStep; every SIMD level must reproduce them. d = 32
// is the encoder width align_batch pretrains at; d = 19 leaves a tail
// after the 8-wide blocks.
TEST(PretrainTest, TableMatchesGoldenAtEveryLevel) {
  const std::vector<std::string> corpus = MixedCorpus();
  SubwordTokenizer tok;
  ASSERT_TRUE(tok.Train(corpus, TokenizerConfig{}).ok());
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (tmath::Avx2Supported()) levels.push_back(SimdLevel::kAvx2);
  struct Golden {
    int64_t dim;
    uint64_t hash;
  };
  for (const Golden& golden : {Golden{32, 0x901dfa160ee35333ULL},
                               Golden{19, 0xa16446d53e82668eULL}}) {
    for (const SimdLevel level : levels) {
      sdea::testing::ScopedSimdLevel simd(level);
      PretrainConfig cfg;
      cfg.dim = golden.dim;
      cfg.epochs = 6;
      auto r = CooccurrencePretrainer().Train(corpus, tok, cfg);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(HashTable(*r), golden.hash)
          << "dim=" << golden.dim << " level=" << tmath::SimdLevelName(level)
          << " vocab=" << tok.vocab().size() << std::hex << " got 0x"
          << HashTable(*r);
    }
  }
}

}  // namespace
}  // namespace sdea::text
