// Robustness / fuzz-style tests: hostile and degenerate inputs must fail
// cleanly (Status or well-defined output), never crash or hang.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "base/rng.h"
#include "core/attribute_sequencer.h"
#include "core/numeric_channel.h"
#include "kg/validation.h"
#include "text/normalizer.h"
#include "text/tokenizer.h"

namespace sdea {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->UniformInt(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->UniformInt(256)));
  }
  return out;
}

TEST(RobustnessTest, NormalizerNeverCrashesOnRandomBytes) {
  Rng rng(101);
  for (int i = 0; i < 500; ++i) {
    const std::string input = RandomBytes(&rng, 200);
    const std::string normalized = text::NormalizeText(input);
    EXPECT_LE(normalized.size(), input.size() + 1);
    const auto words = text::NormalizeAndSplit(input);
    for (const auto& w : words) EXPECT_FALSE(w.empty());
  }
}

TEST(RobustnessTest, TokenizerEncodesRandomBytesWithoutCrash) {
  // Train on a tiny clean corpus, then feed garbage.
  text::SubwordTokenizer tok;
  ASSERT_TRUE(
      tok.Train({"alpha beta gamma delta", "beta gamma epsilon"},
                text::TokenizerConfig{})
          .ok());
  Rng rng(102);
  for (int i = 0; i < 500; ++i) {
    const auto ids = tok.Encode(RandomBytes(&rng, 120));
    for (int64_t id : ids) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, tok.vocab().size());
    }
  }
}

TEST(RobustnessTest, TokenizerTrainOnBinaryCorpus) {
  // Even a corpus of random bytes must either train or fail cleanly.
  Rng rng(103);
  std::vector<std::string> corpus;
  for (int i = 0; i < 20; ++i) corpus.push_back(RandomBytes(&rng, 60));
  text::SubwordTokenizer tok;
  const Status s = tok.Train(corpus, text::TokenizerConfig{});
  if (s.ok()) {
    EXPECT_GE(tok.vocab().size(), text::kNumSpecialTokens);
    (void)tok.Encode("normal text still works");
  }
}

TEST(RobustnessTest, ParseNumericOnRandomBytes) {
  Rng rng(104);
  for (int i = 0; i < 1000; ++i) {
    double v = 0.0;
    (void)core::ParseNumeric(RandomBytes(&rng, 40), &v);
  }
}

TEST(RobustnessTest, EmbedNumberExtremes) {
  float buf[core::kNumericFeatureDim];
  for (double v : {0.0, -0.0, 1e-30, -1e-30, 1e15, -1e15, 3.14159}) {
    core::EmbedNumber(v, buf);
    for (float f : buf) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST(RobustnessTest, SequencerOnAttributeFreeGraph) {
  kg::KnowledgeGraph g;
  for (int i = 0; i < 10; ++i) g.AddEntity("e" + std::to_string(i));
  core::AttributeSequencer seq(&g, 7);
  for (kg::EntityId e = 0; e < 10; ++e) {
    EXPECT_EQ(seq.Sequence(e), "");
  }
}

TEST(RobustnessTest, ValidationOnNastyValues) {
  Rng rng(105);
  kg::KnowledgeGraph g;
  const kg::EntityId e = g.AddEntity("e");
  const kg::AttributeId a = g.AddAttribute("x");
  for (int i = 0; i < 50; ++i) {
    g.AddAttributeTriple(e, a, RandomBytes(&rng, 100));
  }
  const auto report = kg::ValidateKnowledgeGraph(g);
  // Formatting a report full of binary garbage must not crash.
  (void)kg::FormatValidationReport(report);
}

TEST(RobustnessTest, HugeAttributeValueHandled) {
  kg::KnowledgeGraph g;
  const kg::EntityId e = g.AddEntity("e");
  const kg::AttributeId a = g.AddAttribute("blob");
  g.AddAttributeTriple(e, a, std::string(1 << 20, 'x'));  // 1 MiB value.
  core::AttributeSequencer seq(&g, 3);
  EXPECT_EQ(seq.Sequence(e).size(), static_cast<size_t>(1 << 20));
  // Tokenizing it stays bounded via max_word_bytes.
  text::SubwordTokenizer tok;
  ASSERT_TRUE(tok.Train({"small corpus words"}, text::TokenizerConfig{})
                  .ok());
  const auto ids = tok.Encode(seq.Sequence(e));
  EXPECT_EQ(ids.size(), 1u);  // One oversize word -> one [UNK].
}

}  // namespace
}  // namespace sdea
