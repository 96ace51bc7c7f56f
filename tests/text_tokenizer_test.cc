#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "datagen/generator.h"
#include "text/normalizer.h"

namespace sdea::text {
namespace {

std::vector<std::string> SmallCorpus() {
  return {
      "the quick brown fox jumps over the lazy dog",
      "the quick brown cat sleeps",
      "a lazy dog and a quick fox",
      "brown dogs and brown cats",
      "the fox likes the dog",
  };
}

TEST(VocabTest, SpecialTokensFirst) {
  Vocab v;
  EXPECT_EQ(v.size(), kNumSpecialTokens);
  EXPECT_EQ(v.GetToken(kPadId), "[PAD]");
  EXPECT_EQ(v.GetToken(kClsId), "[CLS]");
  EXPECT_EQ(v.GetToken(kUnkId), "[UNK]");
  EXPECT_EQ(v.GetToken(kSepId), "[SEP]");
}

TEST(VocabTest, AddAndLookup) {
  Vocab v;
  const int64_t id = v.AddToken("hello");
  EXPECT_EQ(v.AddToken("hello"), id);  // Idempotent.
  EXPECT_EQ(v.GetId("hello"), id);
  EXPECT_EQ(v.GetId("unknown-token"), kUnkId);
  EXPECT_TRUE(v.Contains("hello"));
  EXPECT_FALSE(v.Contains("nope"));
}

TEST(TokenizerTest, TrainOnEmptyCorpusFails) {
  SubwordTokenizer t;
  EXPECT_FALSE(t.Train({}, TokenizerConfig{}).ok());
  EXPECT_FALSE(t.Train({"", "  "}, TokenizerConfig{}).ok());
}

TEST(TokenizerTest, EncodeKnownWordsWithoutUnk) {
  SubwordTokenizer t;
  ASSERT_TRUE(t.Train(SmallCorpus(), TokenizerConfig{}).ok());
  const auto ids = t.Encode("the quick brown fox");
  EXPECT_FALSE(ids.empty());
  for (int64_t id : ids) EXPECT_NE(id, kUnkId);
}

TEST(TokenizerTest, FrequentWordBecomesSingleToken) {
  SubwordTokenizer t;
  TokenizerConfig c;
  c.num_merges = 256;
  ASSERT_TRUE(t.Train(SmallCorpus(), c).ok());
  // "the" appears often; merges should fuse it into one piece.
  EXPECT_EQ(t.TokenizeWord("the").size(), 1u);
}

TEST(TokenizerTest, UnseenWordSplitsIntoKnownSubwords) {
  SubwordTokenizer t;
  ASSERT_TRUE(t.Train(SmallCorpus(), TokenizerConfig{}).ok());
  // "boxer" is unseen but built of seen characters.
  const auto pieces = t.TokenizeWord("boxer");
  EXPECT_GE(pieces.size(), 1u);
  for (const auto& p : pieces) EXPECT_NE(p, "[UNK]");
}

TEST(TokenizerTest, UnseenCharactersMapToUnk) {
  SubwordTokenizer t;
  ASSERT_TRUE(t.Train(SmallCorpus(), TokenizerConfig{}).ok());
  EXPECT_EQ(t.TokenizeWord("zzz###"), (std::vector<std::string>{"[UNK]"}));
}

TEST(TokenizerTest, EncodeForModelPrependsClsAndTruncates) {
  SubwordTokenizer t;
  ASSERT_TRUE(t.Train(SmallCorpus(), TokenizerConfig{}).ok());
  const auto ids =
      t.EncodeForModel("the quick brown fox jumps over the lazy dog", 5);
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids[0], kClsId);
}

TEST(TokenizerTest, ZeroMergesStillEncodes) {
  SubwordTokenizer t;
  TokenizerConfig c;
  c.num_merges = 0;
  ASSERT_TRUE(t.Train(SmallCorpus(), c).ok());
  // Character-level only: every word still tokenizes.
  const auto ids = t.Encode("fox");
  EXPECT_FALSE(ids.empty());
  for (int64_t id : ids) EXPECT_NE(id, kUnkId);
}

TEST(TokenizerTest, DeterministicAcrossRuns) {
  SubwordTokenizer a, b;
  ASSERT_TRUE(a.Train(SmallCorpus(), TokenizerConfig{}).ok());
  ASSERT_TRUE(b.Train(SmallCorpus(), TokenizerConfig{}).ok());
  EXPECT_EQ(a.vocab().size(), b.vocab().size());
  EXPECT_EQ(a.Encode("quick brown dogs"), b.Encode("quick brown dogs"));
}

TEST(TokenizerTest, SaveLoadRoundTrip) {
  const char* dir = std::getenv("TMPDIR");
  const std::string path =
      std::string(dir != nullptr ? dir : "/tmp") + "/sdea_tok_vocab.txt";
  SubwordTokenizer a;
  ASSERT_TRUE(a.Train(SmallCorpus(), TokenizerConfig{}).ok());
  ASSERT_TRUE(a.Save(path).ok());
  SubwordTokenizer b;
  ASSERT_TRUE(b.Load(path).ok());
  EXPECT_EQ(a.vocab().size(), b.vocab().size());
  EXPECT_EQ(a.Encode("lazy fox"), b.Encode("lazy fox"));
}

TEST(TokenizerTest, MaxWordBytesGuard) {
  SubwordTokenizer t;
  TokenizerConfig c;
  c.max_word_bytes = 8;
  ASSERT_TRUE(t.Train(SmallCorpus(), c).ok());
  EXPECT_EQ(t.TokenizeWord("averyveryverylongword"),
            (std::vector<std::string>{"[UNK]"}));
}

TEST(TokenizerTest, NumbersTokenize) {
  SubwordTokenizer t;
  std::vector<std::string> corpus = SmallCorpus();
  corpus.push_back("born 1935 died 2004 number 42");
  ASSERT_TRUE(t.Train(corpus, TokenizerConfig{}).ok());
  const auto ids = t.Encode("1935");
  EXPECT_FALSE(ids.empty());
  for (int64_t id : ids) EXPECT_NE(id, kUnkId);
}

// --- Merge order ---------------------------------------------------------

// The merge loop as it stood before the incremental pair counts: every
// merge rebuilds the string-keyed pair counts over every word. Train must
// learn its vocabulary token for token.
std::vector<std::string> LegacyVocab(const std::vector<std::string>& corpus,
                                     const TokenizerConfig& config) {
  struct Word {
    std::vector<std::string> symbols;
    int64_t freq = 0;
  };
  std::unordered_map<std::string, int64_t> word_freq;
  for (const std::string& text : corpus) {
    for (const std::string& w : NormalizeAndSplit(text)) {
      if (static_cast<int64_t>(w.size()) > config.max_word_bytes) continue;
      ++word_freq[w];
    }
  }
  std::vector<Word> words;
  for (const auto& [w, f] : word_freq) {
    Word word;
    word.freq = f;
    for (size_t i = 0; i < w.size();) {
      size_t len = 1;
      const unsigned char c = static_cast<unsigned char>(w[i]);
      if ((c & 0xE0) == 0xC0) len = 2;
      else if ((c & 0xF0) == 0xE0) len = 3;
      else if ((c & 0xF8) == 0xF0) len = 4;
      len = std::min(len, w.size() - i);
      word.symbols.push_back((i > 0 ? "##" : "") + w.substr(i, len));
      i += len;
    }
    words.push_back(std::move(word));
  }
  std::sort(words.begin(), words.end(), [](const Word& a, const Word& b) {
    if (a.freq != b.freq) return a.freq > b.freq;
    return a.symbols < b.symbols;
  });
  Vocab vocab;
  for (const Word& w : words) {
    for (const std::string& s : w.symbols) vocab.AddToken(s);
  }
  for (int64_t merge = 0; merge < config.num_merges; ++merge) {
    std::unordered_map<std::string, int64_t> pair_freq;
    std::unordered_map<std::string, std::pair<std::string, std::string>>
        pair_parts;
    for (const Word& w : words) {
      for (size_t i = 0; i + 1 < w.symbols.size(); ++i) {
        std::string key = w.symbols[i] + "\x01" + w.symbols[i + 1];
        pair_freq[key] += w.freq;
        pair_parts.emplace(key, std::make_pair(w.symbols[i], w.symbols[i + 1]));
      }
    }
    if (pair_freq.empty()) break;
    std::string best_key;
    int64_t best_freq = 0;
    for (const auto& [key, freq] : pair_freq) {
      if (freq > best_freq || (freq == best_freq && key < best_key)) {
        best_key = key;
        best_freq = freq;
      }
    }
    if (best_freq < config.min_pair_frequency) break;
    const auto [left, right] = pair_parts[best_key];
    const std::string merged = left + right.substr(2);
    vocab.AddToken(merged);
    for (Word& w : words) {
      std::vector<std::string>& sym = w.symbols;
      for (size_t i = 0; i + 1 < sym.size();) {
        if (sym[i] == left && sym[i + 1] == right) {
          sym[i] = merged;
          sym.erase(sym.begin() + static_cast<int64_t>(i) + 1);
        } else {
          ++i;
        }
      }
    }
  }
  std::vector<std::string> tokens;
  for (int64_t id = 0; id < vocab.size(); ++id) {
    tokens.push_back(vocab.GetToken(id));
  }
  return tokens;
}

// Trains both ways and compares the vocabularies token by token; returns
// the legacy loop's vocabulary size.
int64_t ExpectLegacyVocab(const std::vector<std::string>& corpus,
                          const TokenizerConfig& config,
                          const std::string& what) {
  const std::vector<std::string> want = LegacyVocab(corpus, config);
  SubwordTokenizer t;
  EXPECT_TRUE(t.Train(corpus, config).ok()) << what;
  EXPECT_EQ(t.vocab().size(), static_cast<int64_t>(want.size())) << what;
  const int64_t n =
      std::min(t.vocab().size(), static_cast<int64_t>(want.size()));
  for (int64_t id = 0; id < n; ++id) {
    if (t.vocab().GetToken(id) != want[static_cast<size_t>(id)]) {
      ADD_FAILURE() << what << ": token " << id << " is "
                    << t.vocab().GetToken(id) << ", the full rebuild learns "
                    << want[static_cast<size_t>(id)];
      break;
    }
  }
  return static_cast<int64_t>(want.size());
}

TokenizerConfig Merges(int64_t num_merges, int64_t min_pair_frequency = 2) {
  TokenizerConfig c;
  c.num_merges = num_merges;
  c.min_pair_frequency = min_pair_frequency;
  return c;
}

TEST(TokenizerMergeTest, FrequencyTiesBreakByJoinedKey) {
  // Every pair occurs exactly twice, so each merge is a tie between all
  // live pairs; "ab" and "a" + "b..." words make one joined key a prefix
  // of another.
  const std::vector<std::string> corpus = {
      "ab cd ef gh abc ba dc fe hg", "ab cd ef gh abc ba dc fe hg",
      "xyz zyx yxz xzy", "xyz zyx yxz xzy"};
  for (const int64_t merges : {1, 2, 5, 1024}) {
    ExpectLegacyVocab(corpus, Merges(merges), "ties " + std::to_string(merges));
  }
}

TEST(TokenizerMergeTest, MultiByteUtf8Symbols) {
  const std::vector<std::string> corpus = {
      "caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 \xc3\xb1" "and\xc3\xba",
      "\xe6\x9d\xb1\xe4\xba\xac \xe6\x9d\xb1\xe4\xba\xac\xe9\x83\xbd "
      "\xe4\xba\xac\xe9\x83\xbd caf\xc3\xa9",
      "\xf0\x9f\x98\x80\xf0\x9f\x98\x80 r\xc3\xa9sum\xc3\xa9s "
      "caf\xc3\xa9s \xe6\x9d\xb1\xe4\xba\xac",
      // A lead byte with its continuation cut off by the word's end.
      "abc\xe6\x9d abc\xe6\x9d \xc3"};
  for (const int64_t merges : {3, 1024}) {
    ExpectLegacyVocab(corpus, Merges(merges), "utf8 " + std::to_string(merges));
  }
}

TEST(TokenizerMergeTest, OverlappingRepeatsMergeLeftToRight) {
  // "##a ##a ##a" holds the pair ("##a", "##a") twice, overlapping; the
  // rewrite takes the left occurrence.
  const std::vector<std::string> corpus = {
      "aaaa aaaaaa aaa aaaaaaa bbbbbbb abab ababab aabbaabb",
      "aaaa aaaaaaaaa ba baba bababab"};
  for (const int64_t merges : {1, 2, 3, 4, 8, 1024}) {
    ExpectLegacyVocab(corpus, Merges(merges), "aaaa " + std::to_string(merges));
  }
}

TEST(TokenizerMergeTest, StopsBelowMinPairFrequency) {
  const std::vector<std::string> corpus = {
      "lorem ipsum dolor sit amet", "lorem ipsum dolor", "lorem ipsum",
      "lorem", "consectetur adipiscing elit"};
  for (const int64_t min_freq : {1, 2, 3, 4, 5, 100}) {
    const int64_t size = ExpectLegacyVocab(
        corpus, Merges(1024, min_freq),
        "min_pair_frequency=" + std::to_string(min_freq));
    if (min_freq == 100) {
      // No pair is that frequent: the base alphabet alone.
      SubwordTokenizer base;
      ASSERT_TRUE(base.Train(corpus, Merges(0)).ok());
      EXPECT_EQ(size, base.vocab().size());
    }
  }
}

TEST(TokenizerMergeTest, StopsWhenEveryWordIsOneSymbol) {
  const std::vector<std::string> corpus = {"abc abd abc", "xy abd", "q"};
  const int64_t size = ExpectLegacyVocab(corpus, Merges(1000, 1), "exhausted");
  // Once every word is one symbol no pair is left, long before 1000 merges.
  SubwordTokenizer t;
  ASSERT_TRUE(t.Train(corpus, Merges(1000, 1)).ok());
  EXPECT_LT(size, 30);
  for (const char* word : {"abc", "abd", "xy", "q"}) {
    EXPECT_EQ(t.TokenizeWord(word), std::vector<std::string>{word});
  }
}

TEST(TokenizerMergeTest, RandomCorporaMatchTheFullRebuild) {
  // Words over a two- or three-letter alphabet: dense pair repeats and
  // long runs of equal counts.
  Rng rng(20261021);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<std::string> corpus;
    const int64_t texts = rng.UniformRange(1, 40);
    for (int64_t t = 0; t < texts; ++t) {
      std::string text;
      const int64_t words = rng.UniformRange(1, 8);
      for (int64_t w = 0; w < words; ++w) {
        const int64_t len = rng.UniformRange(1, 12);
        for (int64_t k = 0; k < len; ++k) {
          text += "abc"[rng.UniformInt(trial % 2 == 0 ? 2 : 3)];
        }
        text += ' ';
      }
      corpus.push_back(text);
    }
    const int64_t merges = trial % 3 == 0 ? 1024 : rng.UniformRange(0, 40);
    const int64_t min_freq = rng.UniformRange(1, 3);
    ExpectLegacyVocab(corpus, Merges(merges, min_freq),
                      "random trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TokenizerMergeTest, GeneratedKgCorpusMatchesTheFullRebuild) {
  // Attribute values of a generated KG pair, as the text encoder trains on
  // them, at the default 1024 merges.
  datagen::GeneratorConfig cfg;
  cfg.num_matched = 120;
  const datagen::GeneratedBenchmark bench =
      datagen::BenchmarkGenerator().Generate(cfg);
  std::vector<std::string> corpus;
  for (const kg::KnowledgeGraph* g : {&bench.kg1, &bench.kg2}) {
    g->Snapshot().ForEachAttribute(
        [&](int64_t, kg::EntityId, kg::AttributeId, const std::string& v) {
          corpus.push_back(v);
        });
  }
  const int64_t size = ExpectLegacyVocab(corpus, TokenizerConfig{}, "kg");
  EXPECT_GT(size, 500);
}

}  // namespace
}  // namespace sdea::text
