#ifndef SDEA_BASELINES_GCN_ALIGN_H_
#define SDEA_BASELINES_GCN_ALIGN_H_

#include <memory>
#include <string>

#include "baselines/aligner_interface.h"
#include "nn/layers.h"
#include "tensor/sparse.h"

namespace sdea::baselines {

/// GCN-Align (Wang et al., EMNLP'18) and its variants: a two-layer graph
/// convolutional network over the union graph of both KGs (block-diagonal
/// normalized adjacency), trained full-batch with a margin ranking loss on
/// the seed pairs. Options select the paper's three flavours:
///  - use_attributes=false, use_attention=false : "GCN" (structure only);
///  - use_attributes=true                       : "GCN-Align" (adds an
///    attribute-count feature channel);
///  - use_attention=true                        : "MuGNN (GAT)" — edge
///    weights computed from current features with a stop-gradient
///    attention (documented approximation of GAT training).
class GcnAlign : public EntityAligner {
 public:
  struct Config {
    int64_t feature_dim = 64;
    int64_t hidden_dim = 64;
    int64_t out_dim = 64;
    int64_t attr_feature_dim = 32;  ///< Hashed attribute-name counts.
    bool use_attributes = false;
    bool use_attention = false;
    /// Initialize the trainable feature matrix from pre-trained entity-name
    /// embeddings (mean of co-occurrence-trained name-token vectors) — the
    /// RDGCN/HGCN recipe of seeding GCNs with GloVe name vectors.
    bool init_features_from_names = false;
    float lr = 0.005f;
    float margin = 1.0f;
    int64_t epochs = 120;
    int64_t eval_every = 10;   ///< Validation cadence for best-checkpoint.
    int64_t negatives = 5;     ///< Negatives per positive per epoch.
    uint64_t seed = 23;
    std::string display_name = "GCN";
  };

  explicit GcnAlign(Config config) : config_(std::move(config)) {}

  std::string name() const override { return config_.display_name; }
  Status Fit(const AlignInput& input) override;

 private:
  Config config_;
};

/// Factory configs for the published flavours.
GcnAlign::Config GcnConfig();
GcnAlign::Config GcnAlignConfig();
GcnAlign::Config GatAlignConfig();
GcnAlign::Config RdgcnLiteConfig();

}  // namespace sdea::baselines

#endif  // SDEA_BASELINES_GCN_ALIGN_H_
