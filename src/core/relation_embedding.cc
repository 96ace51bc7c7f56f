#include "core/relation_embedding.h"

#include <algorithm>

#include "base/threadpool.h"
#include "core/margin_alignment.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace sdea::core {
namespace {

// Caps an entity's neighbor list deterministically: the first
// `max_neighbors` edges in insertion order (the generator and real TSV
// loads both preserve source order). Reads the pinned snapshot's sealed
// chunk indexes instead of a materialized adjacency list.
std::vector<kg::EntityId> CapNeighbors(const kg::KgSnapshot& snap,
                                       kg::EntityId e, int64_t cap) {
  std::vector<kg::EntityId> out;
  for (const kg::NeighborEdge& edge : snap.NeighborsOf(e)) {
    out.push_back(edge.neighbor);
    if (static_cast<int64_t>(out.size()) >= cap) break;
  }
  if (out.empty()) out.push_back(e);  // Zero-neighbor fallback: self.
  return out;
}

}  // namespace

Status RelationEmbeddingModule::Init(const kg::KnowledgeGraph& kg1,
                                     const kg::KnowledgeGraph& kg2,
                                     int64_t attr_dim,
                                     const RelationModuleConfig& config) {
  if (initialized_) {
    return Status::FailedPrecondition("module already initialized");
  }
  if (attr_dim <= 0) return Status::InvalidArgument("attr_dim must be > 0");
  config_ = config;
  attr_dim_ = attr_dim;

  Rng rng(config.seed);
  bigru_ = std::make_unique<nn::BiGru>("rel.bigru", attr_dim,
                                       config.hidden_dim, &rng);
  projection_ = std::make_unique<nn::Linear>("rel.proj", attr_dim,
                                             config.hidden_dim, &rng);
  attention_mlp_ = std::make_unique<nn::Mlp>(
      "rel.attn",
      std::vector<int64_t>{config.hidden_dim, config.hidden_dim},
      nn::Activation::kRelu, &rng);
  joint_mlp_ = std::make_unique<nn::Mlp>(
      "rel.joint",
      std::vector<int64_t>{attr_dim + config.hidden_dim, config.joint_dim},
      nn::Activation::kRelu, &rng);
  AddSubmodule(bigru_.get());
  AddSubmodule(projection_.get());
  AddSubmodule(attention_mlp_.get());
  AddSubmodule(joint_mlp_.get());

  const kg::KgSnapshot snap1 = kg1.Snapshot();
  const kg::KgSnapshot snap2 = kg2.Snapshot();
  neighbors_.resize(2);
  neighbors_[0].reserve(static_cast<size_t>(snap1.num_entities()));
  for (kg::EntityId e = 0; e < snap1.num_entities(); ++e) {
    neighbors_[0].push_back(CapNeighbors(snap1, e, config.max_neighbors));
  }
  neighbors_[1].reserve(static_cast<size_t>(snap2.num_entities()));
  for (kg::EntityId e = 0; e < snap2.num_entities(); ++e) {
    neighbors_[1].push_back(CapNeighbors(snap2, e, config.max_neighbors));
  }
  initialized_ = true;
  return Status::Ok();
}

const std::vector<kg::EntityId>& RelationEmbeddingModule::neighbor_list(
    int side, kg::EntityId e) const {
  SDEA_CHECK(side == 1 || side == 2);
  const auto& per_side = neighbors_[static_cast<size_t>(side - 1)];
  SDEA_CHECK(e >= 0 && static_cast<size_t>(e) < per_side.size());
  return per_side[static_cast<size_t>(e)];
}

void RelationEmbeddingModule::ForwardEntity(Graph* g, int side,
                                            kg::EntityId e,
                                            const Tensor& ha_side,
                                            NodeId* hr_out,
                                            NodeId* hm_out) const {
  SDEA_CHECK(initialized_);
  SDEA_CHECK_EQ(ha_side.dim(1), attr_dim_);
  const std::vector<kg::EntityId>& nbrs = neighbor_list(side, e);
  const int64_t t_len = static_cast<int64_t>(nbrs.size());

  // x_t: the attribute embeddings of the neighbors, as frozen constants —
  // Algorithm 3 updates RelModule and the MLPs only.
  Tensor x({t_len, attr_dim_});
  for (int64_t t = 0; t < t_len; ++t) {
    x.SetRow(t, ha_side.Row(nbrs[static_cast<size_t>(t)]));
  }
  NodeId inputs = g->Input(std::move(x));

  NodeId hidden = -1;  // [T, hidden_dim]
  switch (config_.aggregation) {
    case NeighborAggregation::kBiGruAttention:
      hidden = bigru_->Forward(g, inputs);
      break;
    case NeighborAggregation::kMeanPooling:
    case NeighborAggregation::kAttentionOnly:
      hidden = g->Tanh(projection_->Forward(g, inputs));
      break;
  }

  NodeId hr;
  if (config_.aggregation == NeighborAggregation::kMeanPooling) {
    hr = g->MeanRows(hidden);
  } else {
    // Eq. 12: global attention representation from the last hidden state.
    NodeId h_n = g->SliceRows(hidden, t_len - 1, t_len);
    NodeId h_hat = attention_mlp_->Forward(g, h_n);  // [1, hid]
    // Eqs. 13-14: inner-product scores, softmax over neighbors.
    NodeId scores = g->Matmul(h_hat, g->Transpose(hidden));  // [1, T]
    NodeId alpha = g->SoftmaxRows(scores);
    // Eq. 15: weighted sum of the neighbor states.
    hr = g->Matmul(alpha, hidden);  // [1, hid]
  }
  hr = g->L2NormalizeRows(hr);

  // Eq. 16: joint representation from the entity's own Ha and Hr.
  Tensor ha_row({1, attr_dim_});
  ha_row.SetRow(0, ha_side.Row(e));
  NodeId ha_node = g->Input(std::move(ha_row));
  NodeId hm = joint_mlp_->Forward(g, g->ConcatCols(ha_node, hr));
  hm = g->L2NormalizeRows(hm);

  *hr_out = hr;
  *hm_out = hm;
}

int64_t RelationEmbeddingModule::entity_embedding_dim() const {
  return config_.hidden_dim + attr_dim_ + config_.joint_dim;
}

Tensor RelationEmbeddingModule::ComputeEntityEmbeddings(
    int side, const Tensor& ha_side) const {
  SDEA_CHECK(initialized_);
  SDEA_CHECK(side == 1 || side == 2);
  obs::TraceSpan span("relation/embed_all");
  const int64_t n = static_cast<int64_t>(
      neighbors_[static_cast<size_t>(side - 1)].size());
  SDEA_CHECK_EQ(ha_side.dim(0), n);
  SDEA_CHECK_EQ(ha_side.dim(1), attr_dim_);
  Tensor out({n, entity_embedding_dim()});
  base::ParallelFor(n, kEmbedChunk, [&](int64_t begin, int64_t end) {
    EmbedChunk(side, ha_side, begin, end, &out);
  });
  return out;
}

void RelationEmbeddingModule::EmbedChunk(int side, const Tensor& ha_side,
                                         int64_t begin, int64_t end,
                                         Tensor* out) const {
  // ForwardEntity for entities [begin, end) at once, off the tape. Every
  // op below keeps rows independent, so each entity's rows round as in
  // its own graph.
  const int64_t count = end - begin, hid = config_.hidden_dim;
  const int64_t width = entity_embedding_dim();
  // The entities' neighbour sequences back to back.
  std::vector<int64_t> offsets{0};
  for (kg::EntityId e = begin; e < end; ++e) {
    offsets.push_back(offsets.back() +
                      static_cast<int64_t>(neighbor_list(side, e).size()));
  }
  Tensor x({offsets.back(), attr_dim_});
  for (kg::EntityId e = begin; e < end; ++e) {
    int64_t row = offsets[static_cast<size_t>(e - begin)];
    for (kg::EntityId nb : neighbor_list(side, e)) {
      std::copy(ha_side.data() + nb * attr_dim_,
                ha_side.data() + (nb + 1) * attr_dim_,
                x.data() + row++ * attr_dim_);
    }
  }

  Tensor hidden;  // [rows, hid]
  if (config_.aggregation == NeighborAggregation::kBiGruAttention) {
    hidden = bigru_->InferPacked(x, offsets);
  } else {
    hidden = projection_->Infer(x);
    tmath::TanhInPlace(hidden.data(), hidden.size());
  }

  Tensor hr({count, hid});
  if (config_.aggregation == NeighborAggregation::kMeanPooling) {
    for (int64_t i = 0; i < count; ++i) {
      const int64_t seg = offsets[static_cast<size_t>(i)];
      tmath::MeanRows(hidden.data() + seg * hid,
                      offsets[static_cast<size_t>(i) + 1] - seg, hid,
                      hr.data() + i * hid);
    }
  } else {
    // Eq. 12 for every entity at once, from its last hidden state.
    Tensor last({count, hid});
    for (int64_t i = 0; i < count; ++i) {
      const int64_t row = offsets[static_cast<size_t>(i) + 1] - 1;
      std::copy(hidden.data() + row * hid, hidden.data() + (row + 1) * hid,
                last.data() + i * hid);
    }
    const Tensor h_hat = attention_mlp_->Infer(last);
    // Eqs. 13-15 per entity segment: exact dots, softmax over the
    // entity's own neighbours, exact weighted sum.
    std::vector<float> alpha;
    for (int64_t i = 0; i < count; ++i) {
      const int64_t seg = offsets[static_cast<size_t>(i)];
      const int64_t t_len = offsets[static_cast<size_t>(i) + 1] - seg;
      const float* states = hidden.data() + seg * hid;
      alpha.resize(static_cast<size_t>(t_len));
      for (int64_t t = 0; t < t_len; ++t) {
        alpha[static_cast<size_t>(t)] = tmath::kernels::ScoreDot(
            h_hat.data() + i * hid, states + t * hid, hid);
      }
      tmath::SoftmaxRowInPlace(alpha.data(), t_len);
      tmath::kernels::MatmulRows(alpha.data(), states, hr.data() + i * hid,
                                 t_len, hid, 0, 1);
    }
  }

  // Eq. 16 on [Ha; Hr] with Hr normalized, and the Ha block of Eq. 17.
  Tensor joint_in({count, attr_dim_ + hid});
  Tensor ha_block({count, attr_dim_});
  for (int64_t i = 0; i < count; ++i) {
    float* row = out->data() + (begin + i) * width;
    tmath::L2NormalizeRow(hr.data() + i * hid, hid, tmath::kL2NormalizeEps,
                          row);
    const float* ha = ha_side.data() + (begin + i) * attr_dim_;
    float* joint_row = joint_in.data() + i * (attr_dim_ + hid);
    std::copy(ha, ha + attr_dim_, joint_row);
    std::copy(row, row + hid, joint_row + attr_dim_);
    std::copy(ha, ha + attr_dim_, ha_block.data() + i * attr_dim_);
  }
  tmath::L2NormalizeRowsInPlace(&ha_block);
  const Tensor hm = joint_mlp_->Infer(joint_in);
  const int64_t jd = config_.joint_dim;
  for (int64_t i = 0; i < count; ++i) {
    float* row = out->data() + (begin + i) * width;
    std::copy(ha_block.data() + i * attr_dim_,
              ha_block.data() + (i + 1) * attr_dim_, row + hid);
    tmath::L2NormalizeRow(hm.data() + i * jd, jd, tmath::kL2NormalizeEps,
                          row + hid + attr_dim_);
  }
}

Result<TrainReport> RelationEmbeddingModule::Train(
    const Tensor& ha1, const Tensor& ha2, const kg::AlignmentSeeds& seeds,
    train::CheckpointManager* checkpoint) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before Train()");
  }
  if (seeds.train.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  // Algorithm 3. Lines 5-9: the loss embedding of an entity is [Hr; Hm];
  // line 12 validates on the final entity embedding (Eq. 17).
  auto ha = [&ha1, &ha2](int side) -> const Tensor& {
    return side == 1 ? ha1 : ha2;
  };
  MarginAlignmentTask task(
      this, &seeds,
      [this, ha](Graph* g, int side, kg::EntityId e, Rng* /*rng*/) {
        NodeId hr, hm;
        ForwardEntity(g, side, e, ha(side), &hr, &hm);
        return g->ConcatCols(hr, hm);
      },
      [this, ha](int side) { return ComputeEntityEmbeddings(side, ha(side)); },
      config_.seed ^ 0x5ca1ab1eULL, config_.lr, config_.margin,
      config_.grad_clip, config_.num_candidates, /*negatives_per_pair=*/1);
  // Line 1: candidates from the pre-trained attribute embeddings, fixed for
  // the whole run.
  task.FixCandidates(ha1, ha2);
  train::TrainerOptions options;
  options.max_epochs = config_.max_epochs;
  options.batch_size = config_.batch_size;
  options.shuffle = train::TrainerOptions::Shuffle::kCumulative;
  options.patience = config_.patience;
  options.checkpoint = checkpoint;
  return task.Train(std::move(options));
}

}  // namespace sdea::core
