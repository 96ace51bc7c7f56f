#ifndef SDEA_CORE_RELATION_EMBEDDING_H_
#define SDEA_CORE_RELATION_EMBEDDING_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "core/train_report.h"
#include "kg/knowledge_graph.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "train/checkpoint.h"

namespace sdea::core {

/// Neighbor-aggregation strategies. The paper argues for BiGRU + attention
/// (Section III-B); the alternatives it mentions (mean pooling, direct
/// attention) are implemented for the design-choice ablation bench.
enum class NeighborAggregation {
  kBiGruAttention,  ///< Paper's design (Eqs. 8-15).
  kMeanPooling,     ///< Average the projected neighbor embeddings.
  kAttentionOnly,   ///< Attention over projected neighbors, no recurrence.
};

/// Hyper-parameters of the relation embedding module and the joint training
/// of Algorithm 3.
struct RelationModuleConfig {
  int64_t hidden_dim = 32;     ///< BiGRU hidden width (Hr dim).
  int64_t joint_dim = 32;      ///< Hm width (Eq. 16).
  int64_t max_neighbors = 16;  ///< Neighbor sequence cap (degree truncation).
  NeighborAggregation aggregation = NeighborAggregation::kBiGruAttention;

  float margin = 1.0f;
  float lr = 1e-3f;
  float grad_clip = 5.0f;
  int64_t batch_size = 32;  ///< Paper uses 256 at GPU scale.
  int64_t max_epochs = 40;
  int64_t patience = 5;
  int64_t num_candidates = 10;
  uint64_t seed = 6;
};

/// The relation embedding module plus joint representation learning: given
/// *frozen* pre-trained attribute embeddings Ha, it aggregates each
/// entity's neighbors with a BiGRU + attention (Eqs. 8-15) into Hr, forms
/// the joint embedding Hm = MLP([Ha; Hr]) (Eq. 16), and trains both with
/// the margin loss on [Hr; Hm] (Algorithm 3). The final entity embedding is
/// Hent = [Hr; Ha; Hm] (Eq. 17).
class RelationEmbeddingModule : public nn::Module {
 public:
  RelationEmbeddingModule() = default;

  /// Captures the (capped) neighbor lists of both KGs and builds the
  /// networks. `attr_dim` must match the attribute embeddings' width.
  Status Init(const kg::KnowledgeGraph& kg1, const kg::KnowledgeGraph& kg2,
              int64_t attr_dim, const RelationModuleConfig& config);

  /// Forward pass for one entity. `ha_side` holds the frozen attribute
  /// embeddings of the entity's own KG ([N, attr_dim]); `hr_out`/`hm_out`
  /// receive [1, hidden_dim] and [1, joint_dim] nodes (L2-normalized).
  void ForwardEntity(Graph* g, int side, kg::EntityId e,
                     const Tensor& ha_side, NodeId* hr_out,
                     NodeId* hm_out) const;

  /// Algorithm 3: trains this module (the transformer stays frozen;
  /// candidates come from the pre-trained attribute embeddings and are
  /// computed once). `ha1`/`ha2` are the frozen attribute embeddings.
  /// The loop runs on train::Trainer; pass a CheckpointManager to save the
  /// run periodically and resume it (bitwise-identically) after a kill.
  Result<TrainReport> Train(const Tensor& ha1, const Tensor& ha2,
                            const kg::AlignmentSeeds& seeds,
                            train::CheckpointManager* checkpoint = nullptr);

  /// Hent = [Hr; Ha; Hm] for every entity of `side` ([N, out width]),
  /// blocks individually L2-normalized so cosine weighs the three aspects
  /// equally. Runs off the autograd tape: a no-grad forward batched over
  /// chunks of kEmbedChunk entities, the chunks sharded across the thread
  /// pool. Every row has the bits ForwardEntity gives (the Ha block is
  /// normalized by tmath::L2NormalizeRowsInPlace) at every chunking,
  /// thread count and SIMD level.
  Tensor ComputeEntityEmbeddings(int side, const Tensor& ha_side) const;

  /// Entities per chunk of ComputeEntityEmbeddings. Smaller chunks pay
  /// the pool's per-chunk cost more often; larger ones leave pool threads
  /// idle on a few hundred entities.
  static constexpr int64_t kEmbedChunk = 64;

  int64_t entity_embedding_dim() const;
  const RelationModuleConfig& config() const { return config_; }

  /// The neighbor list used for entity `e` (after capping); entities
  /// without neighbors fall back to themselves (documented deviation: the
  /// paper leaves the zero-neighbor case unspecified).
  const std::vector<kg::EntityId>& neighbor_list(int side,
                                                 kg::EntityId e) const;

 private:
  /// ComputeEntityEmbeddings' rows [begin, end) of `side`, written to
  /// `out`.
  void EmbedChunk(int side, const Tensor& ha_side, int64_t begin,
                  int64_t end, Tensor* out) const;

  RelationModuleConfig config_;
  int64_t attr_dim_ = 0;
  std::unique_ptr<nn::BiGru> bigru_;
  std::unique_ptr<nn::Linear> projection_;  // For non-recurrent ablations.
  std::unique_ptr<nn::Mlp> attention_mlp_;  // Eq. 12.
  std::unique_ptr<nn::Mlp> joint_mlp_;      // Eq. 16.
  std::vector<std::vector<std::vector<kg::EntityId>>> neighbors_;
  bool initialized_ = false;
};

}  // namespace sdea::core

#endif  // SDEA_CORE_RELATION_EMBEDDING_H_
