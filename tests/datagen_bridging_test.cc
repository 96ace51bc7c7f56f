// The cross-lingual substitution machinery: borrowing channel and
// comparable pre-training corpus (DESIGN.md §1). These properties are what
// make the generated cross-lingual benchmarks learnable the same way the
// real ones are.
#include <gtest/gtest.h>

#include "base/strings.h"
#include "datagen/generator.h"
#include "datagen/lexicon.h"
#include "text/normalizer.h"

namespace sdea::datagen {
namespace {

GeneratorConfig XlingConfig(uint64_t seed) {
  GeneratorConfig c;
  c.seed = seed;
  c.num_matched = 200;
  c.kg1_lang_seed = 1;
  c.kg2_lang_seed = 2;
  c.kg2_name_mode = NameMode::kTranslated;
  return c;
}

// Collects the word set of all attribute values of a KG.
std::set<std::string> ValueWords(const kg::KnowledgeGraph& g) {
  std::set<std::string> out;
  g.Snapshot().ForEachAttribute(
      [&](int64_t, kg::EntityId, kg::AttributeId, const std::string& value) {
        for (const auto& w : text::NormalizeAndSplit(value)) out.insert(w);
      });
  return out;
}

TEST(BorrowingTest, BorrowProbCreatesSharedVocabulary) {
  GeneratorConfig with = XlingConfig(9);
  with.borrow_prob = 0.3;
  GeneratorConfig without = XlingConfig(9);
  without.borrow_prob = 0.0;

  auto shared_words = [](const GeneratedBenchmark& b) {
    const auto w1 = ValueWords(b.kg1);
    const auto w2 = ValueWords(b.kg2);
    int64_t shared = 0;
    for (const auto& w : w2) {
      if (LooksNumeric(w)) continue;  // Numbers are always shared.
      if (w1.count(w)) ++shared;
    }
    return shared;
  };
  const auto b_with = BenchmarkGenerator().Generate(with);
  const auto b_without = BenchmarkGenerator().Generate(without);
  EXPECT_GT(shared_words(b_with), 4 * std::max<int64_t>(
                                          1, shared_words(b_without)));
}

TEST(BorrowingTest, MonolingualPairsUnaffected) {
  GeneratorConfig c = XlingConfig(10);
  c.kg2_lang_seed = c.kg1_lang_seed;  // Monolingual.
  c.kg2_name_mode = NameMode::kShared;
  c.borrow_prob = 0.5;  // Must be a no-op when languages match.
  const auto b = BenchmarkGenerator().Generate(c);
  // Matched entities' name values coincide exactly.
  auto name1 = b.kg1.FindAttribute("name");
  ASSERT_TRUE(name1.ok());
  int64_t with_name = 0;
  b.kg1.Snapshot().ForEachAttribute(
      [&](int64_t, kg::EntityId, kg::AttributeId a, const std::string&) {
        if (a == *name1) ++with_name;
      });
  EXPECT_GT(with_name, 100);
}

TEST(ComparableCorpusTest, AdjacentWordsAreTranslations) {
  GeneratorConfig c = XlingConfig(11);
  c.pretrain_sentences = 50;
  const auto b = BenchmarkGenerator().Generate(c);
  // Each even-indexed word in a sentence is the L1 rendering of some
  // index; the following word is the L2 rendering of the SAME index —
  // verify by checking the pair is consistent for repeated occurrences.
  // Surface-form hash collisions make the L1->L2 map slightly
  // non-injective; require consistency for the overwhelming majority.
  std::map<std::string, std::string> translation;
  int64_t consistent = 0, inconsistent = 0;
  for (const auto& sentence : b.pretrain_corpus) {
    const auto words = SplitWhitespace(sentence);
    ASSERT_EQ(words.size() % 2, 0u);
    for (size_t i = 0; i + 1 < words.size(); i += 2) {
      auto it = translation.find(words[i]);
      if (it == translation.end()) {
        translation.emplace(words[i], words[i + 1]);
      } else if (it->second == words[i + 1]) {
        ++consistent;
      } else {
        ++inconsistent;
      }
    }
  }
  EXPECT_GT(translation.size(), 20u);
  EXPECT_GT(consistent, 20 * std::max<int64_t>(1, inconsistent));
}

TEST(ComparableCorpusTest, NoEntityUniqueWordsLeak) {
  // The corpus must not contain entity-unique name words (that would leak
  // alignment supervision into "pre-training").
  GeneratorConfig c = XlingConfig(12);
  c.pretrain_sentences = 200;
  const auto b = BenchmarkGenerator().Generate(c);
  // Unique words render from index kUniqueNameBase + id; spot-check that
  // the second word of each entity name (the unique one) never appears.
  auto name1 = b.kg1.FindAttribute("name");
  ASSERT_TRUE(name1.ok());
  // Short surface forms collide across indices (the lexicon hashes into a
  // small 2-syllable space), so restrict to 4-syllable unique words where
  // accidental collisions are vanishingly rare.
  std::set<std::string> unique_words;
  b.kg1.Snapshot().ForEachAttribute(
      [&](int64_t, kg::EntityId, kg::AttributeId a, const std::string& value) {
        if (a != *name1) return;
        const auto words = SplitWhitespace(value);
        if (words.size() >= 2 && words[1].size() >= 8) {
          unique_words.insert(words[1]);
        }
      });
  ASSERT_GT(unique_words.size(), 20u);
  int64_t leaks = 0;
  for (const auto& sentence : b.pretrain_corpus) {
    for (const auto& w : SplitWhitespace(sentence)) {
      if (unique_words.count(w)) ++leaks;
    }
  }
  EXPECT_LT(leaks, 3);
}

}  // namespace
}  // namespace sdea::datagen
