// core::MarginAlignmentTask on a toy module: how often each epoch embeds
// every entity, with refreshed and with fixed candidates.
#include "core/margin_alignment.h"

#include <gtest/gtest.h>

#include <utility>

#include "nn/module.h"

namespace sdea::core {
namespace {

constexpr int64_t kEntities = 12;
constexpr int64_t kDim = 4;

// One embedding table per side; an entity's embedding is its row.
class ToyTables : public nn::Module {
 public:
  ToyTables() {
    Rng rng(3);
    side1 = AddParameter("toy.side1",
                         Tensor::RandomNormal({kEntities, kDim}, 1.0f, &rng));
    side2 = AddParameter("toy.side2",
                         Tensor::RandomNormal({kEntities, kDim}, 1.0f, &rng));
  }
  Parameter* table(int side) { return side == 1 ? side1 : side2; }
  Parameter* side1;
  Parameter* side2;
};

// Entity i of side 1 matches entity i of side 2; 8 train, 4 valid pairs.
kg::AlignmentSeeds ToySeeds(bool with_valid) {
  kg::AlignmentSeeds seeds;
  for (kg::EntityId e = 0; e < kEntities; ++e) {
    auto& split = e < 8 || !with_valid ? seeds.train : seeds.valid;
    split.emplace_back(e, e);
  }
  return seeds;
}

// Runs 3 epochs and returns how many times each side was embedded whole.
std::pair<int, int> EmbedAllCalls(const kg::AlignmentSeeds& seeds,
                                  bool fix_candidates) {
  ToyTables tables;
  std::pair<int, int> calls{0, 0};
  MarginAlignmentTask task(
      &tables, &seeds,
      [&](Graph* g, int side, kg::EntityId e, Rng* /*rng*/) {
        return g->Gather(g->Param(tables.table(side)), {e});
      },
      [&](int side) {
        ++(side == 1 ? calls.first : calls.second);
        return tables.table(side)->value;
      },
      /*rng_seed=*/5, /*lr=*/0.01f, /*margin=*/1.0f, /*grad_clip=*/5.0f,
      /*num_candidates=*/3, /*negatives_per_pair=*/1);
  if (fix_candidates) {
    task.FixCandidates(tables.side1->value, tables.side2->value);
  }
  train::TrainerOptions options;
  options.max_epochs = 3;
  options.batch_size = 4;
  const auto report = task.Train(options);
  if (!report.ok()) {
    ADD_FAILURE() << report.status().ToString();
  } else {
    EXPECT_EQ(report->epochs_run, 3);
  }
  return calls;
}

TEST(MarginAlignmentTaskTest, EmbedAllCallsPerSide) {
  // Refreshed candidates: epoch 0 embeds both sides for its candidates,
  // every EvalMetric embeds them again, and the next epoch's candidates
  // come from that pair, so 1 + 3 calls per side instead of 2 per epoch.
  EXPECT_EQ(EmbedAllCalls(ToySeeds(true), false), std::make_pair(4, 4));
  // Fixed candidates: only EvalMetric embeds.
  EXPECT_EQ(EmbedAllCalls(ToySeeds(true), true), std::make_pair(3, 3));
  // No validation split: EvalMetric embeds nothing, so each epoch embeds
  // both sides for its own candidates.
  EXPECT_EQ(EmbedAllCalls(ToySeeds(false), false), std::make_pair(3, 3));
}

}  // namespace
}  // namespace sdea::core
