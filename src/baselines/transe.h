#ifndef SDEA_BASELINES_TRANSE_H_
#define SDEA_BASELINES_TRANSE_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "kg/knowledge_graph.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace sdea::baselines {

/// TransE training options.
struct TransEConfig {
  int64_t dim = 64;
  float lr = 0.01f;
  float margin = 1.0f;
  int64_t epochs = 100;
  bool negative_sampling = true;  ///< MTransE trains without negatives.
  bool normalize_entities = true;
  uint64_t seed = 9;
};

/// A hand-rolled TransE embedding table (Bordes et al. 2013) trained with
/// SGD on margin ranking over corrupted triples: score(h,r,t) = ||h+r-t||^2.
/// Used as the relational-association engine of the TransE-family baselines
/// in Table II (MTransE / JAPE-Stru / BootEA). The epoch loop is driven by
/// train::Trainer; the per-triple SGD update stays hand-rolled.
class TransE {
 public:
  TransE(int64_t num_entities, int64_t num_relations,
         const TransEConfig& config);

  /// Trains on the triples; `merge` optionally maps entity ids to shared
  /// slots (parameter sharing of seed-aligned entities across KGs, see
  /// SeedMerge). Empty is the identity mapping.
  void Train(const std::vector<kg::RelationalTriple>& triples,
             const std::vector<int64_t>& merge = {});

  /// One extra epoch of training (used by BootEA's bootstrap rounds).
  void TrainEpoch(const std::vector<kg::RelationalTriple>& triples,
                  const std::vector<int64_t>& merge);

  /// One SGD step pulling h + r1 + r2 toward t — the PTransE path
  /// composition used by IPTransE.
  void PathStep(int64_t h, int64_t r1, int64_t r2, int64_t t, float lr);

  /// One SGD step pulling entity a toward entity b (soft alignment).
  void PullEntities(int64_t a, int64_t b, float lr);

  /// The entity table [num_entities, dim], one row per slot; SplitUnion
  /// resolves merged slots.
  const Tensor& raw_entities() const { return net_.entities->value; }

  /// The embedding tables as a checkpointable module ("transe.entity" /
  /// "transe.relation").
  nn::Module* module() { return &net_; }

 private:
  /// The embedding tables, registered as named parameters so nn
  /// serialization and the Trainer's checkpointing see them.
  class Net : public nn::Module {
   public:
    Net(int64_t num_entities, int64_t num_relations, int64_t dim, Rng* rng);
    Parameter* entities = nullptr;   // [E, dim]
    Parameter* relations = nullptr;  // [R, dim]
  };
  class Task;  // train::TrainTask adapter, defined in transe.cc.

  void Step(int64_t h, int64_t r, int64_t t, int64_t h_neg, int64_t t_neg);
  void RunTrainer(const std::vector<kg::RelationalTriple>& triples,
                  const std::vector<int64_t>& merge, int64_t epochs);

  TransEConfig config_;
  int64_t num_entities_;
  Rng rng_;   // Declared before net_: initialization draws from it.
  Net net_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_TRANSE_H_
