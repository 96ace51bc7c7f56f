#ifndef SDEA_CORE_TEXT_ALIGNMENT_ENCODER_H_
#define SDEA_CORE_TEXT_ALIGNMENT_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/train_report.h"
#include "kg/knowledge_graph.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "text/pretrain.h"
#include "text/tokenizer.h"
#include "train/checkpoint.h"

namespace sdea::core {

/// How the encoded sequence is pooled into one vector. The paper takes the
/// [CLS] state of BERT (Eq. 6); with a from-scratch encoder, mean pooling
/// is the faithful functional substitute (a pre-trained BERT's [CLS] is
/// meaningful, a randomly-initialized one is not) and is the default.
enum class SequencePooling { kCls, kMean };

/// Hyper-parameters for fine-tuning a transformer text encoder with the
/// margin ranking loss of Eq. (18) and candidate-based negative sampling
/// (the inner loop of Algorithm 2).
struct TextEncoderConfig {
  /// Encoder architecture (vocab_size is filled in by Init).
  nn::TransformerConfig encoder = {.vocab_size = 0,
                                   .max_len = 48,
                                   .dim = 32,
                                   .num_heads = 4,
                                   .num_layers = 2,
                                   .ff_dim = 64,
                                   .dropout = 0.1f};
  int64_t out_dim = 32;  ///< Output embedding width after the MLP.
  SequencePooling pooling = SequencePooling::kMean;

  text::TokenizerConfig tokenizer;
  text::PretrainConfig pretrain;

  float margin = 1.0f;
  float lr = 1e-3f;
  float grad_clip = 5.0f;
  /// Input-token dropout during fine-tuning. Prevents the encoder from
  /// satisfying the margin by memorizing entity-unique tokens of the seed
  /// pairs, which would generalize nothing to test entities.
  float train_token_dropout = 0.2f;
  int64_t batch_size = 8;
  int64_t max_epochs = 30;
  int64_t patience = 5;
  int64_t num_candidates = 10;
  /// Training triplets generated per seed pair per epoch (the paper samples
  /// one; more increases steps/epoch, which matters at reduced data scale).
  int64_t negatives_per_pair = 1;

  /// Self-supervised encoder pre-training (the second half of the
  /// pre-trained-LM substitution, see DESIGN.md §1): before fine-tuning,
  /// the transformer is trained contrastively so that two token-dropout
  /// views of the same entity text embed close and different entities far.
  /// No alignment labels are used.
  int64_t ssl_epochs = 3;
  int64_t ssl_batch = 16;
  float ssl_token_dropout = 0.2f;
  int64_t ssl_max_texts = 2000;  ///< Sampled texts per side per epoch cap.

  uint64_t seed = 5;
};

/// A generic "encode one text per entity, fine-tune for alignment" model:
/// the shared engine behind SDEA's attribute embedding module (texts =
/// Algorithm 1 attribute sequences) and the BERT-INT-lite baseline (texts =
/// entity names). Trains a subword tokenizer on the union corpus,
/// pre-trains token embeddings (the pre-trained-LM substitute, DESIGN.md
/// §1), then fine-tunes per Algorithm 2.
class TextAlignmentEncoder : public nn::Module {
 public:
  TextAlignmentEncoder() = default;

  /// `texts1[i]` / `texts2[j]` are the input texts of entity i / j of each
  /// side; `extra_corpus` is additional text (e.g. the generator's
  /// comparable corpus) used for tokenizer training and token-embedding
  /// pre-training only. Must be called once before any other method.
  Status Init(const std::vector<std::string>& texts1,
              const std::vector<std::string>& texts2,
              const TextEncoderConfig& config,
              const std::vector<std::string>& extra_corpus = {});

  /// Encodes entity `e` of `side` (1 or 2) into a [1, out_dim]
  /// L2-normalized node.
  NodeId EncodeEntity(Graph* g, int side, kg::EntityId e, bool training,
                      Rng* rng) const;

  /// Embeddings of every entity of `side` as [N, out_dim] (inference mode):
  /// one EncodeEntity graph per entity (training = false), the entities
  /// sharded across the thread pool.
  Tensor ComputeAllEmbeddings(int side) const;

  /// Algorithm 2 fine-tuning with early stopping on validation Hits@1;
  /// restores the best checkpoint before returning. Runs the
  /// self-supervised stage first (if ssl_epochs > 0). The fine-tuning loop
  /// runs on train::Trainer; pass a CheckpointManager to save the run
  /// periodically and resume it (bitwise-identically) after a kill. Note
  /// the SSL stage runs before the Trainer and is repeated on resume, which
  /// is harmless: its RNG is independent and the resumed Trainer overwrites
  /// all parameters from the checkpoint.
  Result<TrainReport> Pretrain(const kg::AlignmentSeeds& seeds,
                               train::CheckpointManager* checkpoint = nullptr);

  const TextEncoderConfig& config() const { return config_; }
  const text::SubwordTokenizer& tokenizer() const { return tokenizer_; }
  int64_t num_entities(int side) const;
  const std::vector<int64_t>& token_ids(int side, kg::EntityId e) const;

 private:
  /// Keeps [CLS] (ids[0]) and each other token with probability 1 - p,
  /// one Bernoulli draw per token; ids[1] stays when every other token is
  /// dropped. `ids` must hold at least two tokens.
  static std::vector<int64_t> DropTokens(const std::vector<int64_t>& ids,
                                         float p, Rng* rng);

  /// Pools the encoded `ids`, applies the output MLP and L2-normalizes:
  /// a [1, out_dim] node.
  NodeId Encode(Graph* g, const std::vector<int64_t>& ids, bool training,
                Rng* rng) const;

  /// The label-free contrastive encoder pre-training stage: two
  /// token-dropout views of the same text embed close, the batch
  /// neighbour's view far (ssl_epochs = 0 skips it).
  void SelfSupervisedPretrain();

  TextEncoderConfig config_;
  text::SubwordTokenizer tokenizer_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  std::unique_ptr<nn::Mlp> output_mlp_;
  std::vector<std::vector<std::vector<int64_t>>> token_ids_;
  bool initialized_ = false;
};

}  // namespace sdea::core

#endif  // SDEA_CORE_TEXT_ALIGNMENT_ENCODER_H_
