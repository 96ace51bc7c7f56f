#ifndef SDEA_BASELINES_RSN4EA_H_
#define SDEA_BASELINES_RSN4EA_H_

#include <string>
#include <vector>

#include "baselines/aligner_interface.h"
#include "nn/gru.h"
#include "nn/layers.h"

namespace sdea::baselines {

/// RSN4EA-lite (Guo, Sun, Hu — ICML'19): the long-term-relational-
/// dependency group of Table II. Samples biased random walks
/// (entity-relation-entity-... paths) over the union graph with
/// seed-aligned entities identified, then trains a recurrent skip network:
/// a GRU predicts each next element of the path, with skip connections
/// letting an entity step condition directly on the entity two steps back
/// (the "residual" that distinguishes RSNs from plain RNN language models).
/// Alignment signal flows through shared slots of seed pairs, exactly like
/// the TransE-sharing baselines.
class Rsn4Ea : public EntityAligner {
 public:
  struct Config {
    int64_t dim = 48;          ///< Embedding & GRU width.
    int64_t walk_length = 7;   ///< Elements per path (e r e r e ...).
    int64_t walks_per_entity = 4;
    int64_t epochs = 12;
    int64_t batch_paths = 64;  ///< Paths per optimizer step.
    int64_t num_negatives = 4; ///< Sampled-softmax negatives per position.
    float lr = 3e-3f;
    uint64_t seed = 31;
  };

  explicit Rsn4Ea(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "RSN4EA"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_RSN4EA_H_
