#include "baselines/iptranse.h"

#include <algorithm>
#include <tuple>

#include "base/rng.h"
#include "baselines/union_graph.h"
#include "train/trainer.h"

namespace sdea::baselines {
namespace {

// Outgoing adjacency over the merged union graph for path sampling.
struct OutEdges {
  std::vector<std::vector<std::pair<int32_t, int32_t>>> edges;  // (rel, tail)
};

// One IPTransE training iteration: each Trainer epoch is a TransE epoch
// over the union triples (OnEpochBegin, drawing from the model's own Rng)
// followed by `path_samples_per_epoch` PTransE 2-hop path steps (the
// "examples" of this task, drawing from the separate path Rng).
class PathTask : public train::TrainTask {
 public:
  PathTask(TransE* model, const std::vector<kg::RelationalTriple>* triples,
           const std::vector<int64_t>* merge, const OutEdges* out,
           Rng* path_rng, int64_t path_samples, float path_lr)
      : model_(model),
        triples_(triples),
        merge_(merge),
        out_(out),
        path_rng_(path_rng),
        path_samples_(path_samples),
        path_lr_(path_lr) {}

  size_t num_examples() const override {
    return static_cast<size_t>(path_samples_);
  }
  Rng* rng() override { return path_rng_; }
  nn::Module* module() override { return model_->module(); }

  void OnEpochBegin(int64_t /*epoch*/) override {
    model_->TrainEpoch(*triples_, *merge_);
  }

  float TrainBatch(const uint64_t* /*ids*/, size_t n) override {
    const uint64_t total = static_cast<uint64_t>(out_->edges.size());
    for (size_t s = 0; s < n; ++s) {
      const int64_t h = Resolve(static_cast<int64_t>(
          path_rng_->UniformInt(total)));
      const auto& e1edges = out_->edges[static_cast<size_t>(h)];
      if (e1edges.empty()) continue;
      const auto& [r1, m] = e1edges[path_rng_->UniformInt(e1edges.size())];
      const auto& e2edges = out_->edges[static_cast<size_t>(m)];
      if (e2edges.empty()) continue;
      const auto& [r2, t] = e2edges[path_rng_->UniformInt(e2edges.size())];
      model_->PathStep(h, r1, r2, t, path_lr_);
    }
    return 0.0f;
  }

 private:
  int64_t Resolve(int64_t raw) const {
    return (*merge_)[static_cast<size_t>(raw)];
  }

  TransE* model_;
  const std::vector<kg::RelationalTriple>* triples_;
  const std::vector<int64_t>* merge_;
  const OutEdges* out_;
  Rng* path_rng_;
  int64_t path_samples_;
  float path_lr_;
};

}  // namespace

Status IpTransE::Fit(const AlignInput& input) {
  const int64_t n1 = input.kg1.num_entities();
  const int64_t n2 = input.kg2.num_entities();
  const int64_t total = n1 + n2;
  const int64_t relations = std::max<int64_t>(
      1, input.kg1.num_relations() + input.kg2.num_relations());
  const std::vector<int64_t> merge = SeedMerge(n1, n2, input.seeds.train);

  // Union triples (KG2 ids offset) and outgoing adjacency on merged ids.
  const std::vector<kg::RelationalTriple> triples =
      UnionTriples(input.kg1, input.kg2);
  OutEdges out;
  out.edges.resize(static_cast<size_t>(total));
  auto resolve = [&](int64_t raw) { return merge[static_cast<size_t>(raw)]; };
  for (const kg::RelationalTriple& t : triples) {
    out.edges[static_cast<size_t>(resolve(t.head))].emplace_back(
        t.relation, static_cast<int32_t>(resolve(t.tail)));
  }

  TransE model(total, relations, config_.transe);
  Rng rng(config_.transe.seed ^ 0x17abcdULL);

  for (int64_t iter = 0; iter < config_.iterations; ++iter) {
    if (config_.path_samples_per_epoch > 0) {
      PathTask task(&model, &triples, &merge, &out, &rng,
                    config_.path_samples_per_epoch, config_.path_lr);
      train::TrainerOptions options;
      options.max_epochs = config_.epochs_per_iteration;
      options.batch_size = config_.path_samples_per_epoch;
      options.shuffle = train::TrainerOptions::Shuffle::kNone;
      train::Trainer trainer(&task, options);
      auto stats = trainer.Run();
      if (!stats.ok()) return stats.status();
    } else {
      for (int64_t e = 0; e < config_.epochs_per_iteration; ++e) {
        model.TrainEpoch(triples, merge);
      }
    }
    if (iter + 1 == config_.iterations) break;
    // Iterative soft alignment: pull mutually-nearest confident pairs.
    std::tie(emb1_, emb2_) = SplitUnion(model.raw_entities(), n1, merge);
    Tensor s1 = emb1_, s2 = emb2_;
    tmath::L2NormalizeRowsInPlace(&s1);
    tmath::L2NormalizeRowsInPlace(&s2);
    const Tensor scores = tmath::MatmulTransposeB(s1, s2);
    for (int64_t i = 0; i < n1; ++i) {
      const float* row = scores.data() + i * n2;
      const int64_t arg = tmath::ArgMaxRow(row, n2);
      if (row[arg] < config_.align_threshold) continue;
      model.PullEntities(resolve(i), resolve(n1 + arg),
                         config_.path_lr);
    }
  }
  std::tie(emb1_, emb2_) = SplitUnion(model.raw_entities(), n1, merge);
  return Status::Ok();
}

}  // namespace sdea::baselines
