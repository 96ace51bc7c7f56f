#ifndef SDEA_BASELINES_MTRANSE_H_
#define SDEA_BASELINES_MTRANSE_H_

#include <string>

#include "baselines/aligner_interface.h"
#include "baselines/transe.h"

namespace sdea::baselines {

/// MTransE (Chen et al., IJCAI'17): trains TransE independently per KG
/// (without negative sampling, as the original and as the paper's analysis
/// of its weakness notes), then learns a linear transform between the two
/// embedding spaces from the seed alignment.
class MTransE : public EntityAligner {
 public:
  struct Config {
    TransEConfig transe;  ///< negative_sampling is forced off.
    float mapping_lr = 0.05f;
    int64_t mapping_epochs = 200;
    uint64_t seed = 13;
  };

  explicit MTransE(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "MTransE"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_MTRANSE_H_
