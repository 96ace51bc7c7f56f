// NegativeSampler: the extracted uniform-corruption sampler must keep the
// exact RNG call sequence of the historical TransE/TransEdge loops (one
// Bernoulli then one UniformInt per corruption; one UniformInt per plain
// draw), honor merged-slot resolution, and stay distributionally uniform.
#include "train/sampler.h"

#include <gtest/gtest.h>

#include <vector>

#include "base/rng.h"

namespace sdea::train {
namespace {

TEST(NegativeSamplerTest, PinsLegacyCallSequence) {
  // The sampler's stream must equal the raw Bernoulli/UniformInt calls the
  // pre-refactor loops made, from the same generator state.
  constexpr int64_t kEntities = 1000;
  constexpr uint64_t kSeed = 1234;
  NegativeSampler sampler(kEntities);
  Rng rng(kSeed);
  Rng reference(kSeed);
  for (int i = 0; i < 200; ++i) {
    const int64_t head = i % kEntities;
    const int64_t tail = (i * 7 + 3) % kEntities;
    const auto pair = sampler.CorruptHeadOrTail(head, tail, &rng);
    // Legacy inline form: corrupt head or tail with probability 1/2, then
    // draw the replacement uniformly.
    int64_t ref_head = head;
    int64_t ref_tail = tail;
    if (reference.Bernoulli(0.5)) {
      ref_head = static_cast<int64_t>(
          reference.UniformInt(static_cast<uint64_t>(kEntities)));
    } else {
      ref_tail = static_cast<int64_t>(
          reference.UniformInt(static_cast<uint64_t>(kEntities)));
    }
    ASSERT_EQ(pair.head, ref_head) << "at draw " << i;
    ASSERT_EQ(pair.tail, ref_tail) << "at draw " << i;
  }
  // SampleEntity is a single UniformInt.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(sampler.SampleEntity(&rng),
              static_cast<int64_t>(
                  reference.UniformInt(static_cast<uint64_t>(kEntities))));
  }
}

TEST(NegativeSamplerTest, PinsExactDrawsAtFixedSeed) {
  // Regression pin: the first draws at seed 7 over 10 entities. If these
  // change, the sampler (or the Rng) changed its sampling distribution and
  // every golden training test will move with it.
  NegativeSampler sampler(10);
  Rng rng(7);
  std::vector<int64_t> heads, tails;
  for (int i = 0; i < 6; ++i) {
    const auto p = sampler.CorruptHeadOrTail(/*head=*/1, /*tail=*/2, &rng);
    heads.push_back(p.head);
    tails.push_back(p.tail);
  }
  // Exactly one side differs from the positive per draw (or neither, when
  // the uniform draw lands on the original id).
  Rng replay(7);
  for (int i = 0; i < 6; ++i) {
    const bool corrupt_head = replay.Bernoulli(0.5);
    const int64_t drawn = static_cast<int64_t>(replay.UniformInt(10));
    EXPECT_EQ(heads[i], corrupt_head ? drawn : 1);
    EXPECT_EQ(tails[i], corrupt_head ? 2 : drawn);
  }
}

TEST(NegativeSamplerTest, ResolvesMergedSlots) {
  // merge[raw] maps every odd id onto its even predecessor.
  std::vector<int64_t> merge(100);
  for (int64_t i = 0; i < 100; ++i) merge[i] = i - (i % 2);
  NegativeSampler sampler(100, merge);
  EXPECT_EQ(sampler.Resolve(41), 40);
  EXPECT_EQ(sampler.Resolve(40), 40);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.SampleEntity(&rng) % 2, 0);
    const auto p = sampler.CorruptHeadOrTail(4, 8, &rng);
    EXPECT_EQ(p.head % 2, 0);
    EXPECT_EQ(p.tail % 2, 0);
  }
}

TEST(NegativeSamplerTest, IdentityIsUnbiasedUniform) {
  // Chi-square-ish sanity: 20k draws over 8 entities; every bucket within
  // 15% of the expected 2500.
  NegativeSampler sampler(8);
  Rng rng(2024);
  std::vector<int64_t> counts(8, 0);
  for (int i = 0; i < 20000; ++i) counts[sampler.SampleEntity(&rng)]++;
  for (int64_t c : counts) {
    EXPECT_GT(c, 2500 * 0.85);
    EXPECT_LT(c, 2500 * 1.15);
  }
  // Corruption picks head vs tail near 50/50.
  int64_t head_corruptions = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto p = sampler.CorruptHeadOrTail(/*head=*/-1, /*tail=*/-2, &rng);
    head_corruptions += (p.head != -1);
    EXPECT_TRUE(p.head == -1 || p.tail == -2);  // Never both.
  }
  EXPECT_GT(head_corruptions, 20000 * 0.45);
  EXPECT_LT(head_corruptions, 20000 * 0.55);
}

}  // namespace
}  // namespace sdea::train
