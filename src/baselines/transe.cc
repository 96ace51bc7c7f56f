#include "baselines/transe.h"

#include <cmath>

#include "base/check.h"
#include "tensor/kernels.h"
#include "train/sampler.h"
#include "train/trainer.h"

namespace sdea::baselines {

TransE::Net::Net(int64_t num_entities, int64_t num_relations, int64_t dim,
                 Rng* rng) {
  SDEA_CHECK_GT(num_entities, 0);
  SDEA_CHECK_GT(num_relations, 0);
  const float limit = 6.0f / std::sqrt(static_cast<float>(dim));
  Tensor e = Tensor::RandomUniform({num_entities, dim}, limit, rng);
  Tensor r = Tensor::RandomUniform({num_relations, dim}, limit, rng);
  tmath::L2NormalizeRowsInPlace(&e);
  tmath::L2NormalizeRowsInPlace(&r);
  entities = AddParameter("transe.entity", std::move(e));
  relations = AddParameter("transe.relation", std::move(r));
}

TransE::TransE(int64_t num_entities, int64_t num_relations,
               const TransEConfig& config)
    : config_(config),
      num_entities_(num_entities),
      rng_(config.seed),
      net_(num_entities, num_relations, config.dim, &rng_) {}

void TransE::Step(int64_t h, int64_t r, int64_t t, int64_t h_neg,
                  int64_t t_neg) {
  const int64_t d = config_.dim;
  float* entities = net_.entities->value.data();
  float* he = entities + h * d;
  float* te = entities + t * d;
  float* re = net_.relations->value.data() + r * d;

  if (!config_.negative_sampling) {
    // MTransE-style: pull h + r toward t with no contrastive term.
    for (int64_t k = 0; k < d; ++k) {
      const float g = 2.0f * (he[k] + re[k] - te[k]);
      he[k] -= config_.lr * g;
      re[k] -= config_.lr * g;
      te[k] += config_.lr * g;
    }
    return;
  }
  tmath::kernels::TransEStep({he, te, entities + h_neg * d,
                              entities + t_neg * d, re},
                             d, config_.margin, config_.lr);
}

/// Adapts one (triples, merge) training call to the Trainer: corruption
/// draws come from the model's own Rng, so the stream (per-epoch shuffle,
/// then per-triple Bernoulli + UniformInt) is exactly the historical loop's.
class TransE::Task : public train::TrainTask {
 public:
  Task(TransE* model, const std::vector<kg::RelationalTriple>& triples,
       const std::vector<int64_t>& merge)
      : model_(model),
        triples_(triples),
        sampler_(model->num_entities_, merge) {}

  size_t num_examples() const override { return triples_.size(); }
  Rng* rng() override { return &model_->rng_; }
  nn::Module* module() override { return &model_->net_; }

  float TrainBatch(const uint64_t* ids, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      const kg::RelationalTriple& tr = triples_[ids[i]];
      const int64_t h = sampler_.Resolve(tr.head);
      const int64_t t = sampler_.Resolve(tr.tail);
      int64_t h_neg = h, t_neg = t;
      if (model_->config_.negative_sampling) {
        const auto corrupted = sampler_.CorruptHeadOrTail(h, t, rng());
        h_neg = corrupted.head;
        t_neg = corrupted.tail;
        if (h_neg == h && t_neg == t) continue;
      }
      model_->Step(h, tr.relation, t, h_neg, t_neg);
    }
    return 0.0f;
  }

  void OnEpochEnd(int64_t /*epoch*/) override {
    if (model_->config_.normalize_entities) {
      tmath::L2NormalizeRowsInPlace(&model_->net_.entities->value);
    }
  }

 private:
  TransE* model_;
  const std::vector<kg::RelationalTriple>& triples_;
  train::NegativeSampler sampler_;
};

void TransE::RunTrainer(const std::vector<kg::RelationalTriple>& triples,
                        const std::vector<int64_t>& merge, int64_t epochs) {
  if (triples.empty()) {
    // The historical epoch loop still renormalized on empty input.
    if (config_.normalize_entities) {
      for (int64_t e = 0; e < epochs; ++e) {
        tmath::L2NormalizeRowsInPlace(&net_.entities->value);
      }
    }
    return;
  }
  Task task(this, triples, merge);
  train::TrainerOptions options;
  options.max_epochs = epochs;
  options.batch_size = static_cast<int64_t>(triples.size());
  options.shuffle = train::TrainerOptions::Shuffle::kFreshPerEpoch;
  train::Trainer trainer(&task, options);
  SDEA_CHECK(trainer.Run().ok());
}

void TransE::TrainEpoch(const std::vector<kg::RelationalTriple>& triples,
                        const std::vector<int64_t>& merge) {
  RunTrainer(triples, merge, /*epochs=*/1);
}

void TransE::Train(const std::vector<kg::RelationalTriple>& triples,
                   const std::vector<int64_t>& merge) {
  RunTrainer(triples, merge, config_.epochs);
}

void TransE::PathStep(int64_t h, int64_t r1, int64_t r2, int64_t t,
                      float lr) {
  const int64_t d = config_.dim;
  float* entities = net_.entities->value.data();
  float* relations = net_.relations->value.data();
  float* he = entities + h * d;
  float* te = entities + t * d;
  float* r1e = relations + r1 * d;
  float* r2e = relations + r2 * d;
  for (int64_t k = 0; k < d; ++k) {
    const float g = 2.0f * (he[k] + r1e[k] + r2e[k] - te[k]);
    he[k] -= lr * g;
    r1e[k] -= lr * g;
    r2e[k] -= lr * g;
    te[k] += lr * g;
  }
}

void TransE::PullEntities(int64_t a, int64_t b, float lr) {
  const int64_t d = config_.dim;
  float* entities = net_.entities->value.data();
  float* ae = entities + a * d;
  float* be = entities + b * d;
  for (int64_t k = 0; k < d; ++k) {
    const float g = 2.0f * (ae[k] - be[k]);
    ae[k] -= lr * g;
    be[k] += lr * g;
  }
}

}  // namespace sdea::baselines
