#ifndef SDEA_BASELINES_HMAN_H_
#define SDEA_BASELINES_HMAN_H_

#include <string>

#include "baselines/aligner_interface.h"
#include "baselines/gcn_align.h"

namespace sdea::baselines {

/// HMAN-lite (Yang et al., EMNLP'19): multi-aspect alignment. Three
/// channels, matching the configuration the paper's comparison uses when
/// entity descriptions are unavailable (Section V-A4):
///   1. topology  — a structure-only GCN over the union graph;
///   2. relations — an FNN over hashed relation-name count features;
///   3. attributes — an FNN over hashed attribute-name count features.
/// Channel outputs are concatenated; the FNN channels are trained
/// full-batch with the margin ranking loss on the seed pairs.
class Hman : public EntityAligner {
 public:
  struct Config {
    GcnAlign::Config gcn = GcnConfig();
    int64_t feature_dim = 64;   ///< Hashed count-feature width per channel.
    int64_t channel_dim = 32;   ///< FNN output width per channel.
    float lr = 0.01f;
    float margin = 1.0f;
    int64_t epochs = 60;
    int64_t negatives = 5;
    uint64_t seed = 41;
  };

  explicit Hman(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "HMAN"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_HMAN_H_
