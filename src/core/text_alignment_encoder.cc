#include "core/text_alignment_encoder.h"

#include <algorithm>

#include "base/logging.h"
#include "base/threadpool.h"
#include "core/margin_alignment.h"
#include "nn/optimizer.h"
#include "obs/trace.h"

namespace sdea::core {

Status TextAlignmentEncoder::Init(const std::vector<std::string>& texts1,
                                  const std::vector<std::string>& texts2,
                                  const TextEncoderConfig& config,
                                  const std::vector<std::string>& extra_corpus) {
  if (initialized_) {
    return Status::FailedPrecondition("encoder already initialized");
  }
  if (texts1.empty() || texts2.empty()) {
    return Status::InvalidArgument("empty entity text lists");
  }
  config_ = config;

  std::vector<std::string> corpus;
  corpus.reserve(texts1.size() + texts2.size() + extra_corpus.size());
  for (const auto& s : texts1) corpus.push_back(s);
  for (const auto& s : texts2) corpus.push_back(s);
  for (const auto& s : extra_corpus) corpus.push_back(s);
  {
    obs::TraceSpan span("text_encoder/tokenizer_train");
    SDEA_RETURN_IF_ERROR(tokenizer_.Train(corpus, config.tokenizer));
  }

  config_.encoder.vocab_size = tokenizer_.vocab().size();
  Rng init_rng(config.seed);
  encoder_ = std::make_unique<nn::TransformerEncoder>("enc", config_.encoder,
                                                      &init_rng);
  output_mlp_ = std::make_unique<nn::Mlp>(
      "enc.mlp",
      std::vector<int64_t>{config_.encoder.dim, config_.out_dim},
      nn::Activation::kRelu, &init_rng);
  AddSubmodule(encoder_.get());
  AddSubmodule(output_mlp_.get());

  text::PretrainConfig pt = config.pretrain;
  pt.dim = config_.encoder.dim;
  text::CooccurrencePretrainer pretrainer;
  Result<Tensor> table = [&] {
    obs::TraceSpan span("text_encoder/cooccurrence_pretrain");
    return pretrainer.Train(corpus, tokenizer_, pt);
  }();
  if (table.ok()) {
    encoder_->token_embedding()->table()->value = std::move(table).value();
  } else {
    SDEA_LOG_WARNING("token pre-training skipped: " +
                     table.status().ToString());
  }

  token_ids_.resize(2);
  auto encode_all = [&](const std::vector<std::string>& texts,
                        std::vector<std::vector<int64_t>>* out) {
    out->reserve(texts.size());
    for (const std::string& s : texts) {
      out->push_back(tokenizer_.EncodeForModel(s, config_.encoder.max_len));
    }
  };
  encode_all(texts1, &token_ids_[0]);
  encode_all(texts2, &token_ids_[1]);

  initialized_ = true;
  return Status::Ok();
}

int64_t TextAlignmentEncoder::num_entities(int side) const {
  SDEA_CHECK(side == 1 || side == 2);
  return static_cast<int64_t>(
      token_ids_[static_cast<size_t>(side - 1)].size());
}

const std::vector<int64_t>& TextAlignmentEncoder::token_ids(
    int side, kg::EntityId e) const {
  SDEA_CHECK(side == 1 || side == 2);
  const auto& per_side = token_ids_[static_cast<size_t>(side - 1)];
  SDEA_CHECK(e >= 0 && static_cast<size_t>(e) < per_side.size());
  return per_side[static_cast<size_t>(e)];
}

std::vector<int64_t> TextAlignmentEncoder::DropTokens(
    const std::vector<int64_t>& ids, float p, Rng* rng) {
  std::vector<int64_t> kept;
  kept.push_back(ids[0]);  // [CLS]
  for (size_t i = 1; i < ids.size(); ++i) {
    if (!rng->Bernoulli(p)) kept.push_back(ids[i]);
  }
  if (kept.size() == 1) kept.push_back(ids[1]);
  return kept;
}

NodeId TextAlignmentEncoder::Encode(Graph* g, const std::vector<int64_t>& ids,
                                    bool training, Rng* rng) const {
  NodeId pooled = (config_.pooling == SequencePooling::kCls)
                      ? encoder_->EncodeCls(g, ids, training, rng)
                      : encoder_->EncodeMean(g, ids, training, rng);
  return g->L2NormalizeRows(output_mlp_->Forward(g, pooled));
}

NodeId TextAlignmentEncoder::EncodeEntity(Graph* g, int side, kg::EntityId e,
                                          bool training, Rng* rng) const {
  SDEA_CHECK(initialized_);
  const std::vector<int64_t>& ids = token_ids(side, e);
  if (training && config_.train_token_dropout > 0.0f && ids.size() >= 3) {
    SDEA_CHECK(rng != nullptr);
    // Drop non-[CLS] tokens so the margin cannot be satisfied by
    // memorizing entity-unique tokens of the seed pairs.
    return Encode(g, DropTokens(ids, config_.train_token_dropout, rng),
                  training, rng);
  }
  return Encode(g, ids, training, rng);
}

Tensor TextAlignmentEncoder::ComputeAllEmbeddings(int side) const {
  SDEA_CHECK(initialized_);
  obs::TraceSpan span("text_encoder/embed_all");
  const int64_t n = num_entities(side);
  Tensor out({n, config_.out_dim});
  // One entity's graph is far more work than the pool's per-chunk cost,
  // so every entity is its own chunk, which balances the threads best.
  base::ParallelFor(n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t e = begin; e < end; ++e) {
      Graph g;
      NodeId node = EncodeEntity(&g, side, static_cast<kg::EntityId>(e),
                                 /*training=*/false, /*rng=*/nullptr);
      out.SetRow(e, g.Value(node).Row(0));
    }
  });
  return out;
}

void TextAlignmentEncoder::SelfSupervisedPretrain() {
  SDEA_CHECK(initialized_);
  if (config_.ssl_epochs <= 0) return;
  obs::TraceSpan span("text_encoder/self_supervised");
  Rng rng(config_.seed ^ 0x55aa55aaULL);
  nn::Adam optimizer(Parameters(), config_.lr);

  // Pool of (side, entity) texts with at least two non-CLS tokens.
  std::vector<std::pair<int, kg::EntityId>> pool;
  for (int side = 1; side <= 2; ++side) {
    const int64_t n = num_entities(side);
    for (int64_t e = 0; e < n; ++e) {
      if (token_ids(side, static_cast<kg::EntityId>(e)).size() >= 3) {
        pool.emplace_back(side, static_cast<kg::EntityId>(e));
      }
    }
  }
  if (pool.size() < 4) return;

  // A "view" drops each non-CLS token with ssl_token_dropout.
  auto encode_view = [&](Graph* g, int side, kg::EntityId e) {
    const std::vector<int64_t> view =
        DropTokens(token_ids(side, e), config_.ssl_token_dropout, &rng);
    return Encode(g, view, /*training=*/true, &rng);
  };

  for (int64_t epoch = 0; epoch < config_.ssl_epochs; ++epoch) {
    rng.Shuffle(&pool);
    const size_t limit = std::min(
        pool.size(), static_cast<size_t>(config_.ssl_max_texts) * 2);
    for (size_t start = 0; start + 1 < limit;
         start += static_cast<size_t>(config_.ssl_batch)) {
      const size_t end =
          std::min(limit, start + static_cast<size_t>(config_.ssl_batch));
      if (end - start < 2) break;
      Graph g;
      std::vector<NodeId> anchors, positives, negatives;
      for (size_t i = start; i < end; ++i) {
        const auto& [side, e] = pool[i];
        // Negative: the positive view of the batch neighbor (ring order).
        const size_t j = (i + 1 < end) ? i + 1 : start;
        const auto& [nside, ne] = pool[j];
        anchors.push_back(encode_view(&g, side, e));
        positives.push_back(encode_view(&g, side, e));
        negatives.push_back(encode_view(&g, nside, ne));
      }
      MarginStep(&g, anchors, positives, negatives, config_.margin,
                 config_.grad_clip, &optimizer);
    }
  }
}

Result<TrainReport> TextAlignmentEncoder::Pretrain(
    const kg::AlignmentSeeds& seeds, train::CheckpointManager* checkpoint) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before Pretrain()");
  }
  if (seeds.train.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  SelfSupervisedPretrain();

  // Algorithm 2. The seed list is replicated rep-major
  // (`negatives_per_pair` full copies back to back) and the candidates are
  // refreshed at every epoch start (lines 2-4).
  MarginAlignmentTask task(
      this, &seeds,
      [this](Graph* g, int side, kg::EntityId e, Rng* rng) {
        return EncodeEntity(g, side, e, /*training=*/true, rng);
      },
      [this](int side) { return ComputeAllEmbeddings(side); },
      config_.seed ^ 0xabcdef12345ULL, config_.lr, config_.margin,
      config_.grad_clip, config_.num_candidates, config_.negatives_per_pair);
  train::TrainerOptions options;
  options.max_epochs = config_.max_epochs;
  options.batch_size = config_.batch_size;
  options.shuffle = train::TrainerOptions::Shuffle::kFreshPerEpoch;
  options.patience = config_.patience;
  options.checkpoint = checkpoint;
  return task.Train(std::move(options));
}

}  // namespace sdea::core
