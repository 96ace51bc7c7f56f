#ifndef SDEA_BASELINES_IPTRANSE_H_
#define SDEA_BASELINES_IPTRANSE_H_

#include <string>

#include "baselines/aligner_interface.h"
#include "baselines/transe.h"

namespace sdea::baselines {

/// IPTransE-lite (Zhu et al., IJCAI'17): path-enhanced joint TransE.
/// On top of the seed-sharing TransE space, 2-hop relational paths
/// (h -r1-> m -r2-> t) are trained as composite translations
/// ||h + r1 + r2 - t||, transmitting alignment information along short
/// paths (the PTransE component); iterative soft alignment adds
/// high-confidence predicted pairs as extra translation constraints.
class IpTransE : public EntityAligner {
 public:
  struct Config {
    TransEConfig transe;
    int64_t path_samples_per_epoch = 2000;  ///< 2-hop path updates/epoch.
    float path_lr = 0.005f;
    int64_t iterations = 2;     ///< Soft-alignment refresh rounds.
    int64_t epochs_per_iteration = 25;
    float align_threshold = 0.75f;  ///< Cosine floor for soft pairs.
  };

  explicit IpTransE(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "IPTransE"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_IPTRANSE_H_
