#ifndef SDEA_BASELINES_TRANSEDGE_H_
#define SDEA_BASELINES_TRANSEDGE_H_

#include <string>

#include "baselines/aligner_interface.h"

namespace sdea::baselines {

/// TransEdge-lite (Sun et al., ISWC'19): edge-centric translation — the
/// strongest TransE-family baseline in the paper's Table III. The
/// translation vector is contextualized on the specific (head, tail) pair
/// ("context compression"):
///   psi(h, r, t) = tanh(W [h ; t] + b) + r
///   score = || h + psi - t ||^2
/// trained with margin ranking over corrupted triples in a seed-sharing
/// joint space (autograd mini-batches; Adam).
class TransEdge : public EntityAligner {
 public:
  struct Config {
    int64_t dim = 48;
    float margin = 1.0f;
    float lr = 3e-3f;
    int64_t epochs = 30;
    int64_t batch_size = 256;
    uint64_t seed = 43;
  };

  explicit TransEdge(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "TransEdge"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_TRANSEDGE_H_
