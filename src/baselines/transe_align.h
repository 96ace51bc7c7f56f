#ifndef SDEA_BASELINES_TRANSE_ALIGN_H_
#define SDEA_BASELINES_TRANSE_ALIGN_H_

#include <string>
#include <vector>

#include "baselines/aligner_interface.h"
#include "baselines/transe.h"

namespace sdea::baselines {

/// JAPE-Stru-style structural alignment: one TransE space over the union of
/// both KGs, with seed-aligned entities sharing parameters and negative
/// sampling enabled. With `bootstrap_rounds > 0` this becomes a BootEA-lite
/// semi-supervised variant: after each round, mutually-nearest confident
/// pairs are added to the shared-parameter merge and training continues.
class TransEAlign : public EntityAligner {
 public:
  struct Config {
    TransEConfig transe;
    int64_t bootstrap_rounds = 0;      ///< 0 = plain JAPE-Stru behaviour.
    int64_t epochs_per_round = 25;     ///< Extra epochs per bootstrap round.
    float bootstrap_threshold = 0.7f;  ///< Min cosine for a new pseudo-seed.
    std::string display_name = "JAPE-Stru";
  };

  explicit TransEAlign(Config config) : config_(std::move(config)) {}

  std::string name() const override { return config_.display_name; }
  Status Fit(const AlignInput& input) override;

  /// Number of pseudo-seeds added by bootstrapping (for reporting).
  int64_t bootstrapped_pairs() const { return bootstrapped_pairs_; }

 private:
  Config config_;
  int64_t bootstrapped_pairs_ = 0;
};

/// Convenience factory for the BootEA-lite configuration.
TransEAlign::Config BootEaConfig(TransEConfig transe);

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_TRANSE_ALIGN_H_
