#ifndef SDEA_BASELINES_JAPE_H_
#define SDEA_BASELINES_JAPE_H_

#include <string>

#include "baselines/aligner_interface.h"
#include "baselines/transe.h"

namespace sdea::baselines {

/// JAPE (Sun, Hu, Li — ISWC'17): joint attribute-preserving embedding.
/// Structure channel: seed-sharing TransE over the union graph (the
/// JAPE-Stru part). Attribute channel: attribute *names* co-occurring on
/// the same entity are embedded Skip-gram-style (our co-occurrence
/// pre-trainer over per-entity attribute-name sentences); an entity's
/// attribute vector is the mean of its attribute-name embeddings. The
/// final embedding concatenates both channels (each L2-normalized and
/// weighted), so cosine ranking blends structural and attribute
/// correlation evidence.
class Jape : public EntityAligner {
 public:
  struct Config {
    TransEConfig transe;
    int64_t attr_dim = 32;
    float weight_structure = 0.7f;
    float weight_attributes = 0.3f;
    int64_t attr_pretrain_epochs = 8;
    uint64_t seed = 37;
  };

  explicit Jape(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "JAPE"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_JAPE_H_
