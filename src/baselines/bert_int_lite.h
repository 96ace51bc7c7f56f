#ifndef SDEA_BASELINES_BERT_INT_LITE_H_
#define SDEA_BASELINES_BERT_INT_LITE_H_

#include <string>

#include "baselines/aligner_interface.h"
#include "core/text_alignment_encoder.h"

namespace sdea::baselines {

/// BERT-INT-lite (Tang et al., IJCAI'20, name channel): fine-tunes the
/// transformer text encoder on *entity names only*. This captures the
/// baseline's strong dependency on literal names that the paper highlights:
/// near-perfect on shared-name benchmarks, collapsing on OpenEA D-W where
/// KG2 names are Wikidata Q-ids (Table V).
class BertIntLite : public EntityAligner {
 public:
  struct Config {
    core::TextEncoderConfig text;
  };

  explicit BertIntLite(Config config) : config_(std::move(config)) {}

  std::string name() const override { return "BERT-INT (lite)"; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
  core::TextAlignmentEncoder encoder_;
};

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_BERT_INT_LITE_H_
