#include "baselines/mtranse.h"

#include "baselines/union_graph.h"
#include "train/trainer.h"

namespace sdea::baselines {
namespace {

// SGD on the linear mapping W minimizing ||W h1 - h2||^2 over seed pairs.
// W is a raw tensor (no module/optimizer); the Trainer only drives the
// epoch order.
class MappingTask : public train::TrainTask {
 public:
  MappingTask(Tensor* w, const Tensor* e1, const Tensor* e2,
              const std::vector<std::pair<kg::EntityId, kg::EntityId>>* pairs,
              Rng* rng, float lr, int64_t d)
      : w_(w), e1_(e1), e2_(e2), pairs_(pairs), rng_(rng), lr_(lr), d_(d) {}

  size_t num_examples() const override { return pairs_->size(); }
  Rng* rng() override { return rng_; }

  float TrainBatch(const uint64_t* ids, size_t n) override {
    Tensor& w = *w_;
    const int64_t d = d_;
    for (size_t k = 0; k < n; ++k) {
      const auto& [a, b] = (*pairs_)[ids[k]];
      const float* h1 = e1_->data() + a * d;
      const float* h2 = e2_->data() + b * d;
      // residual = W h1 - h2; dW = 2 residual h1^T.
      std::vector<float> residual(static_cast<size_t>(d), 0.0f);
      for (int64_t i = 0; i < d; ++i) {
        float s = 0.0f;
        for (int64_t j = 0; j < d; ++j) s += w[i * d + j] * h1[j];
        residual[static_cast<size_t>(i)] = s - h2[i];
      }
      for (int64_t i = 0; i < d; ++i) {
        const float coeff = 2.0f * lr_ * residual[static_cast<size_t>(i)];
        for (int64_t j = 0; j < d; ++j) w[i * d + j] -= coeff * h1[j];
      }
    }
    return 0.0f;
  }

 private:
  Tensor* w_;
  const Tensor* e1_;
  const Tensor* e2_;
  const std::vector<std::pair<kg::EntityId, kg::EntityId>>* pairs_;
  Rng* rng_;
  float lr_;
  int64_t d_;
};

}  // namespace

Status MTransE::Fit(const AlignInput& input) {
  TransEConfig tc = config_.transe;
  tc.negative_sampling = false;  // Original MTransE has no negatives.
  TransE model1(input.kg1.num_entities(),
                std::max<int64_t>(1, input.kg1.num_relations()), tc);
  tc.seed ^= 0x9999;
  TransE model2(input.kg2.num_entities(),
                std::max<int64_t>(1, input.kg2.num_relations()), tc);
  model1.Train(RelationalRows(input.kg1));
  model2.Train(RelationalRows(input.kg2));

  const Tensor& e1 = model1.raw_entities();
  const Tensor& e2 = model2.raw_entities();
  const int64_t d = config_.transe.dim;

  // Learn W minimizing ||W h1 - h2||^2 over the seed pairs by SGD,
  // initialized at identity.
  Tensor w({d, d});
  for (int64_t i = 0; i < d; ++i) w[i * d + i] = 1.0f;
  Rng rng(config_.seed);
  if (!input.seeds.train.empty() && config_.mapping_epochs > 0) {
    MappingTask task(&w, &e1, &e2, &input.seeds.train, &rng,
                     config_.mapping_lr, d);
    train::TrainerOptions options;
    options.max_epochs = config_.mapping_epochs;
    options.batch_size = static_cast<int64_t>(input.seeds.train.size());
    options.shuffle = train::TrainerOptions::Shuffle::kCumulative;
    train::Trainer trainer(&task, options);
    auto stats = trainer.Run();
    if (!stats.ok()) return stats.status();
  }

  // emb1 = e1 @ W^T maps KG1 into KG2's space.
  emb1_ = tmath::MatmulTransposeB(e1, w);
  emb2_ = e2;
  return Status::Ok();
}

}  // namespace sdea::baselines
