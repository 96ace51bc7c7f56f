#include "incr/aligner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/check.h"
#include "nn/module.h"
#include "obs/histogram.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "train/trainer.h"

namespace sdea::incr {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void NormalizeRow(float* p, int64_t d) {
  float norm = 0.0f;
  for (int64_t k = 0; k < d; ++k) norm += p[k] * p[k];
  norm = std::sqrt(norm);
  if (norm > 1e-12f) {
    for (int64_t k = 0; k < d; ++k) p[k] /= norm;
  }
}

/// Registry handles for the incr.* metrics. Same static-handle idiom as
/// the Trainer's: resolve once, record gated on obs::Enabled().
struct IncrMetrics {
  obs::Counter* increments;
  obs::Counter* noop_increments;
  obs::Counter* promotions;
  obs::Counter* demotions;
  obs::HistogramCell* diff_rows;
  obs::HistogramCell* touched;
  obs::HistogramCell* affected;
  obs::HistogramCell* reembed_ms;

  static const IncrMetrics& Get() {
    static const IncrMetrics m = [] {
      obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
      IncrMetrics out;
      out.increments = reg->GetCounter("incr.increments");
      out.noop_increments = reg->GetCounter("incr.noop_increments");
      out.promotions = reg->GetCounter("incr.promotions");
      out.demotions = reg->GetCounter("incr.demotions");
      const auto sizes =
          obs::Histogram::Exponential(1.0, 2.0, 24).upper_bounds();
      out.diff_rows = reg->GetHistogram("incr.diff_rows", sizes);
      out.touched = reg->GetHistogram("incr.touched_entities", sizes);
      out.affected = reg->GetHistogram("incr.affected_entities", sizes);
      out.reembed_ms = reg->GetHistogram(
          "incr.reembed_ms",
          obs::Histogram::Exponential(0.25, 2.0, 24).upper_bounds());
      return out;
    }();
    return m;
  }
};

}  // namespace

// ---- Model ------------------------------------------------------------------

/// Separate entity/relation tables per KG. Growing one side appends rows
/// to its own table only — the other side's row ids stay put, which is
/// what makes warm-started re-embedding across increments possible without
/// remapping.
struct IncrementalAligner::Net : nn::Module {
  Parameter* ent1;
  Parameter* ent2;
  Parameter* rel1;
  Parameter* rel2;

  Net(Tensor e1, Tensor e2, Tensor r1, Tensor r2) {
    ent1 = AddParameter("incr.ent1", std::move(e1));
    ent2 = AddParameter("incr.ent2", std::move(e2));
    rel1 = AddParameter("incr.rel1", std::move(r1));
    rel2 = AddParameter("incr.rel2", std::move(r2));
  }
};

/// Trainer adapter: full-batch SGD over the selected union triples, with
/// the pseudo-seed pull at epoch start and masked renormalization at epoch
/// end (the exact cadence TransE's legacy loop used for its renormalize).
class IncrementalAligner::Task : public train::TrainTask {
 public:
  Task(IncrementalAligner* a, const std::vector<UnionTriple>& triples)
      : a_(a), triples_(triples) {}

  size_t num_examples() const override { return triples_.size(); }
  Rng* rng() override { return &a_->rng_; }
  nn::Module* module() override { return a_->net_.get(); }

  float TrainBatch(const uint64_t* ids, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      a_->TrainTriple(triples_[ids[i]]);
    }
    return 0.0f;
  }

  void OnEpochBegin(int64_t /*epoch*/) override { a_->PullPromoted(); }
  void OnEpochEnd(int64_t /*epoch*/) override { a_->NormalizeTrainable(); }

 private:
  IncrementalAligner* a_;
  const std::vector<UnionTriple>& triples_;
};

// ---- Lifecycle --------------------------------------------------------------

IncrementalAligner::IncrementalAligner(kg::KnowledgeGraph* kg1,
                                       kg::KnowledgeGraph* kg2,
                                       IncrementalAlignerOptions options)
    : kg1_(kg1), kg2_(kg2), opts_(options), rng_(options.seed) {}

IncrementalAligner::~IncrementalAligner() = default;

Status IncrementalAligner::FitBase(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& seeds) {
  if (kg1_ == nullptr || kg2_ == nullptr) {
    return Status::InvalidArgument("IncrementalAligner: null graphs");
  }
  if (opts_.dim <= 0) return Status::InvalidArgument("dim must be > 0");
  snap1_ = kg1_->Snapshot();
  snap2_ = kg2_->Snapshot();
  n1_ = snap1_.num_entities();
  n2_ = snap2_.num_entities();
  if (n1_ == 0 || n2_ == 0) {
    return Status::InvalidArgument("FitBase requires non-empty graphs");
  }
  nr1_ = std::max<int64_t>(1, snap1_.num_relations());
  nr2_ = std::max<int64_t>(1, snap2_.num_relations());

  resolve2_.assign(static_cast<size_t>(n2_), -1);
  seed_used1_.assign(static_cast<size_t>(n1_), 0);
  for (const auto& [a, b] : seeds) {
    if (a < 0 || a >= n1_ || b < 0 || b >= n2_) {
      return Status::InvalidArgument("seed pair out of range");
    }
    if (seed_used1_[static_cast<size_t>(a)] != 0 ||
        resolve2_[static_cast<size_t>(b)] >= 0) {
      return Status::InvalidArgument("duplicate entity in seed pairs");
    }
    resolve2_[static_cast<size_t>(b)] = a;
    seed_used1_[static_cast<size_t>(a)] = 1;
  }
  promoted_.clear();
  promoted1_used_.assign(static_cast<size_t>(n1_), 0);
  promoted2_used_.assign(static_cast<size_t>(n2_), 0);

  const float limit = 6.0f / std::sqrt(static_cast<float>(opts_.dim));
  Tensor e1 = Tensor::RandomUniform({n1_, opts_.dim}, limit, &rng_);
  Tensor e2 = Tensor::RandomUniform({n2_, opts_.dim}, limit, &rng_);
  Tensor r1 = Tensor::RandomUniform({nr1_, opts_.dim}, limit, &rng_);
  Tensor r2 = Tensor::RandomUniform({nr2_, opts_.dim}, limit, &rng_);
  tmath::L2NormalizeRowsInPlace(&e1);
  tmath::L2NormalizeRowsInPlace(&e2);
  tmath::L2NormalizeRowsInPlace(&r1);
  tmath::L2NormalizeRowsInPlace(&r2);
  net_ = std::make_unique<Net>(std::move(e1), std::move(e2), std::move(r1),
                               std::move(r2));

  ent1_train_.assign(static_cast<size_t>(n1_), 1);
  ent2_train_.assign(static_cast<size_t>(n2_), 1);
  rel1_train_.assign(static_cast<size_t>(nr1_), 1);
  rel2_train_.assign(static_cast<size_t>(nr2_), 1);

  obs::TraceSpan span("incr/fit_base");
  SDEA_RETURN_IF_ERROR(
      RunTraining(CollectAllTriples(), opts_.base_epochs));
  MaterializeEmbeddings();
  last_epoch1_ = snap1_.epoch();
  last_epoch2_ = snap2_.epoch();
  fitted_ = true;
  return Status::Ok();
}

// ---- SGD core ---------------------------------------------------------------

IncrementalAligner::Slot IncrementalAligner::EntSlot(int8_t side,
                                                     int32_t id) {
  const int64_t d = opts_.dim;
  if (side == 2) {
    const int32_t merged = resolve2_[static_cast<size_t>(id)];
    if (merged < 0) {
      return Slot{net_->ent2->value.data() + static_cast<int64_t>(id) * d,
                  ent2_train_[static_cast<size_t>(id)] != 0};
    }
    id = merged;
  }
  return Slot{net_->ent1->value.data() + static_cast<int64_t>(id) * d,
              ent1_train_[static_cast<size_t>(id)] != 0};
}

bool IncrementalAligner::RowTrainable(int8_t side, int32_t id) const {
  if (side == 2) {
    const int32_t merged = resolve2_[static_cast<size_t>(id)];
    if (merged < 0) return ent2_train_[static_cast<size_t>(id)] != 0;
    id = merged;
  }
  return ent1_train_[static_cast<size_t>(id)] != 0;
}

void IncrementalAligner::TrainTriple(const UnionTriple& tr) {
  const int64_t d = opts_.dim;
  const Slot h = EntSlot(tr.side, tr.head);
  const Slot t = EntSlot(tr.side, tr.tail);
  float* rel;
  bool rel_train;
  if (tr.side == 1) {
    rel = net_->rel1->value.data() + static_cast<int64_t>(tr.relation) * d;
    rel_train = rel1_train_[static_cast<size_t>(tr.relation)] != 0;
  } else {
    rel = net_->rel2->value.data() + static_cast<int64_t>(tr.relation) * d;
    rel_train = rel2_train_[static_cast<size_t>(tr.relation)] != 0;
  }

  // Corrupt head or tail within the triple's own KG; the draw always
  // happens so the RNG stream is a pure function of the shuffled order.
  const bool corrupt_head = rng_.Bernoulli(0.5);
  const int64_t n_side = tr.side == 1 ? n1_ : n2_;
  const auto neg_id =
      static_cast<int32_t>(rng_.UniformInt(static_cast<uint64_t>(n_side)));
  Slot hn = h;
  Slot tn = t;
  if (corrupt_head) {
    hn = EntSlot(tr.side, neg_id);
  } else {
    tn = EntSlot(tr.side, neg_id);
  }
  if (hn.p == h.p && tn.p == t.p) return;  // Corruption resolved to itself.

  float d_pos = 0.0f;
  float d_neg = 0.0f;
  for (int64_t k = 0; k < d; ++k) {
    const float dp = h.p[k] + rel[k] - t.p[k];
    const float dn = hn.p[k] + rel[k] - tn.p[k];
    d_pos += dp * dp;
    d_neg += dn * dn;
  }
  if (opts_.margin + d_pos - d_neg <= 0.0f) return;  // Hinge inactive.

  const float lr = opts_.lr;
  for (int64_t k = 0; k < d; ++k) {
    const float gp = 2.0f * (h.p[k] + rel[k] - t.p[k]);
    const float gn = 2.0f * (hn.p[k] + rel[k] - tn.p[k]);
    // Every write is gated on the row's trainable mask — frozen rows
    // contribute to distances but come out of an increment bitwise-intact.
    if (h.trainable) h.p[k] -= lr * gp;
    if (t.trainable) t.p[k] += lr * gp;
    if (hn.trainable) hn.p[k] += lr * gn;
    if (tn.trainable) tn.p[k] -= lr * gn;
    if (rel_train) rel[k] -= lr * (gp - gn);
  }
}

void IncrementalAligner::PullPromoted() {
  const int64_t d = opts_.dim;
  const float lr = opts_.pull_lr;
  for (const auto& [a, b] : promoted_) {
    // Promoted entities are never hard-merged, so the rows are distinct.
    float* pa = net_->ent1->value.data() + static_cast<int64_t>(a) * d;
    float* pb = net_->ent2->value.data() + static_cast<int64_t>(b) * d;
    const bool ta = ent1_train_[static_cast<size_t>(a)] != 0;
    const bool tb = ent2_train_[static_cast<size_t>(b)] != 0;
    if (!ta && !tb) continue;
    for (int64_t k = 0; k < d; ++k) {
      const float g = 2.0f * (pa[k] - pb[k]);
      if (ta) pa[k] -= lr * g;
      if (tb) pb[k] += lr * g;
    }
  }
}

void IncrementalAligner::NormalizeTrainable() {
  const int64_t d = opts_.dim;
  float* e1 = net_->ent1->value.data();
  for (int64_t i = 0; i < n1_; ++i) {
    if (ent1_train_[static_cast<size_t>(i)] != 0) NormalizeRow(e1 + i * d, d);
  }
  float* e2 = net_->ent2->value.data();
  for (int64_t i = 0; i < n2_; ++i) {
    if (ent2_train_[static_cast<size_t>(i)] != 0) NormalizeRow(e2 + i * d, d);
  }
}

Status IncrementalAligner::RunTraining(
    const std::vector<UnionTriple>& triples, int64_t epochs) {
  if (triples.empty() || epochs <= 0) return Status::Ok();
  Task task(this, triples);
  train::TrainerOptions options;
  options.max_epochs = epochs;
  options.batch_size = static_cast<int64_t>(triples.size());
  options.shuffle = train::TrainerOptions::Shuffle::kFreshPerEpoch;
  train::Trainer trainer(&task, options);
  return trainer.Run().status();
}

// ---- Triple selection -------------------------------------------------------

std::vector<IncrementalAligner::UnionTriple>
IncrementalAligner::CollectAllTriples() const {
  std::vector<UnionTriple> out;
  out.reserve(static_cast<size_t>(snap1_.num_relational_triples() +
                                  snap2_.num_relational_triples()));
  snap1_.ForEachRelational(
      [&](int64_t, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
        out.push_back(UnionTriple{h, r, t, 1});
      });
  snap2_.ForEachRelational(
      [&](int64_t, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
        out.push_back(UnionTriple{h, r, t, 2});
      });
  return out;
}

std::vector<IncrementalAligner::UnionTriple>
IncrementalAligner::CollectAffectedTriples() const {
  // A triple trains when any of its (resolved) entity rows is trainable:
  // the frozen endpoints anchor the affected ones to the stable part of
  // the embedding space.
  std::vector<UnionTriple> out;
  snap1_.ForEachRelational(
      [&](int64_t, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
        if (RowTrainable(1, h) || RowTrainable(1, t)) {
          out.push_back(UnionTriple{h, r, t, 1});
        }
      });
  snap2_.ForEachRelational(
      [&](int64_t, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
        if (RowTrainable(2, h) || RowTrainable(2, t)) {
          out.push_back(UnionTriple{h, r, t, 2});
        }
      });
  return out;
}

// ---- Growth -----------------------------------------------------------------

Tensor IncrementalAligner::GrownTable(const Tensor& old, int64_t new_rows) {
  const int64_t d = opts_.dim;
  const int64_t old_rows = old.dim(0);
  if (new_rows == old_rows) return old;
  Tensor grown({new_rows, d});
  std::copy(old.data(), old.data() + old_rows * d, grown.data());
  const float limit = 6.0f / std::sqrt(static_cast<float>(d));
  Tensor fresh =
      Tensor::RandomUniform({new_rows - old_rows, d}, limit, &rng_);
  tmath::L2NormalizeRowsInPlace(&fresh);
  std::copy(fresh.data(), fresh.data() + (new_rows - old_rows) * d,
            grown.data() + old_rows * d);
  return grown;
}

void IncrementalAligner::GrowTables(const kg::KgSnapshot& snap1,
                                    const kg::KgSnapshot& snap2) {
  const int64_t n1 = snap1.num_entities();
  const int64_t n2 = snap2.num_entities();
  const int64_t nr1 = std::max<int64_t>(nr1_, snap1.num_relations());
  const int64_t nr2 = std::max<int64_t>(nr2_, snap2.num_relations());
  if (n1 != n1_ || n2 != n2_ || nr1 != nr1_ || nr2 != nr2_) {
    Tensor e1 = GrownTable(net_->ent1->value, n1);
    Tensor e2 = GrownTable(net_->ent2->value, n2);
    Tensor r1 = GrownTable(net_->rel1->value, nr1);
    Tensor r2 = GrownTable(net_->rel2->value, nr2);
    net_ = std::make_unique<Net>(std::move(e1), std::move(e2), std::move(r1),
                                 std::move(r2));
  }
  n1_ = n1;
  n2_ = n2;
  nr1_ = nr1;
  nr2_ = nr2;
  resolve2_.resize(static_cast<size_t>(n2_), -1);
  seed_used1_.resize(static_cast<size_t>(n1_), 0);
  promoted1_used_.resize(static_cast<size_t>(n1_), 0);
  promoted2_used_.resize(static_cast<size_t>(n2_), 0);
}

// ---- Neighborhood -----------------------------------------------------------

std::vector<kg::EntityId> IncrementalAligner::ExpandNeighborhood(
    const kg::KgSnapshot& snap, std::vector<kg::EntityId> touched) const {
  std::vector<uint8_t> visited(static_cast<size_t>(snap.num_entities()), 0);
  std::vector<kg::EntityId> frontier;
  int64_t admitted = 0;
  for (kg::EntityId e : touched) {
    if (e < 0 || e >= snap.num_entities()) continue;
    if (visited[static_cast<size_t>(e)] == 0) {
      visited[static_cast<size_t>(e)] = 1;
      frontier.push_back(e);
      ++admitted;
    }
  }
  // The expansion budget. Touched entities are exempt (admitted above
  // regardless), so the cap only throttles how far the ripple spreads.
  int64_t budget = snap.num_entities();
  if (opts_.affected_frac_cap > 0.0) {
    budget = std::max(
        admitted, static_cast<int64_t>(opts_.affected_frac_cap *
                                       static_cast<double>(budget)));
  }
  for (int64_t hop = 0;
       hop < opts_.k_hops && !frontier.empty() && admitted < budget; ++hop) {
    std::vector<kg::EntityId> next;
    for (kg::EntityId e : frontier) {
      // Hubs are re-embedded but not expanded through: one edge to a
      // type-concept entity must not drag in the whole graph.
      if (snap.DegreeOf(e) > opts_.hub_degree_cap) continue;
      for (const kg::NeighborEdge& edge : snap.NeighborsOf(e)) {
        if (admitted >= budget) break;
        if (visited[static_cast<size_t>(edge.neighbor)] == 0) {
          visited[static_cast<size_t>(edge.neighbor)] = 1;
          next.push_back(edge.neighbor);
          ++admitted;
        }
      }
      if (admitted >= budget) break;
    }
    frontier = std::move(next);
  }
  std::vector<kg::EntityId> out;
  for (int64_t e = 0; e < snap.num_entities(); ++e) {
    if (visited[static_cast<size_t>(e)] != 0) {
      out.push_back(static_cast<kg::EntityId>(e));
    }
  }
  return out;
}

// ---- Repair & bootstrap -----------------------------------------------------

namespace {

float Dot(const float* a, const float* b, int64_t d) {
  float s = 0.0f;
  for (int64_t k = 0; k < d; ++k) s += a[k] * b[k];
  return s;
}

}  // namespace

int64_t IncrementalAligner::RepairPromoted(
    std::vector<kg::EntityId>* demoted1, std::vector<kg::EntityId>* demoted2) {
  if (promoted_.empty()) return 0;
  obs::TraceSpan span("incr/repair");
  Tensor s1 = emb1_;
  Tensor s2 = emb2_;
  tmath::L2NormalizeRowsInPlace(&s1);
  tmath::L2NormalizeRowsInPlace(&s2);
  const float* p1 = s1.data();
  const float* p2 = s2.data();
  const int64_t n1 = s1.dim(0);
  const int64_t n2 = s2.dim(0);
  const int64_t d = opts_.dim;

  std::vector<std::pair<kg::EntityId, kg::EntityId>> kept;
  kept.reserve(promoted_.size());
  for (const auto& [a, b] : promoted_) {
    const float* va = p1 + static_cast<int64_t>(a) * d;
    const float* vb = p2 + static_cast<int64_t>(b) * d;
    const float score = Dot(va, vb, d);
    // Mutual-nearest check against *all* entities — a promoted pair whose
    // endpoints drifted toward someone else has lost its evidence. Scored
    // per pair (|promoted| row/column scans, early exit on the first
    // usurper) rather than via a full n1 x n2 similarity matrix.
    bool healthy = score >= opts_.repair_threshold;
    for (int64_t j = 0; healthy && j < n2; ++j) {
      if (j != b && Dot(va, p2 + j * d, d) > score) healthy = false;
    }
    for (int64_t i = 0; healthy && i < n1; ++i) {
      if (i != a && Dot(p1 + i * d, vb, d) > score) healthy = false;
    }
    if (healthy) {
      kept.push_back({a, b});
    } else {
      promoted1_used_[static_cast<size_t>(a)] = 0;
      promoted2_used_[static_cast<size_t>(b)] = 0;
      demoted1->push_back(a);
      demoted2->push_back(b);
    }
  }
  const auto demoted = static_cast<int64_t>(promoted_.size() - kept.size());
  promoted_ = std::move(kept);
  return demoted;
}

int64_t IncrementalAligner::BootstrapPromote(
    const std::vector<kg::EntityId>& candidates1) {
  obs::TraceSpan span("incr/bootstrap");
  Tensor s1 = emb1_;
  Tensor s2 = emb2_;
  tmath::L2NormalizeRowsInPlace(&s1);
  tmath::L2NormalizeRowsInPlace(&s2);
  const float* p1 = s1.data();
  const float* p2 = s2.data();
  const int64_t d = opts_.dim;

  // Eligibility excludes gold-merged and already-promoted entities; the
  // argmaxes are restricted to eligible rows/columns so a hard-merged
  // pair's trivially perfect score cannot shadow a genuine candidate.
  auto eligible1 = [&](int64_t a) {
    return seed_used1_[static_cast<size_t>(a)] == 0 &&
           promoted1_used_[static_cast<size_t>(a)] == 0;
  };
  auto eligible2 = [&](int64_t b) {
    return resolve2_[static_cast<size_t>(b)] < 0 &&
           promoted2_used_[static_cast<size_t>(b)] == 0;
  };

  // Only `candidates1` (the entities whose embeddings this fit actually
  // moved) can open new promotions — frozen rows scored the same last
  // increment, so re-scanning them cannot surface new evidence. This keeps
  // the pass O(|affected| * n) instead of O(n1 * n2). The mutual check
  // still runs against *all* of KG1: b must prefer a globally.
  struct Candidate {
    float score;
    kg::EntityId a;
    kg::EntityId b;
  };
  std::vector<Candidate> candidates;
  for (kg::EntityId a : candidates1) {
    if (!eligible1(a)) continue;
    const float* va = p1 + static_cast<int64_t>(a) * d;
    int64_t best = -1;
    float best_score = -2.0f;  // Below any cosine.
    float second = -2.0f;
    for (int64_t j = 0; j < n2_; ++j) {
      if (!eligible2(j)) continue;
      const float sj = Dot(va, p2 + j * d, d);
      if (best < 0 || sj > best_score) {
        second = std::max(second, best_score);
        best = j;
        best_score = sj;
      } else {
        second = std::max(second, sj);
      }
    }
    if (best < 0) continue;
    if (best_score < opts_.bootstrap_threshold) continue;
    if (best_score - second < opts_.bootstrap_margin) continue;
    const float* vb = p2 + best * d;
    bool mutual = true;
    for (int64_t i = 0; mutual && i < n1_; ++i) {
      if (i != a && eligible1(i) && Dot(p1 + i * d, vb, d) > best_score) {
        mutual = false;
      }
    }
    if (!mutual) continue;
    candidates.push_back(Candidate{best_score, a,
                                   static_cast<kg::EntityId>(best)});
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.a < y.a;
            });
  int64_t added = 0;
  for (const Candidate& c : candidates) {
    if (added >= opts_.bootstrap_cap) break;
    if (promoted1_used_[static_cast<size_t>(c.a)] != 0 ||
        promoted2_used_[static_cast<size_t>(c.b)] != 0) {
      continue;  // An exact score tie let two candidates claim one slot.
    }
    promoted_.push_back({c.a, c.b});
    promoted1_used_[static_cast<size_t>(c.a)] = 1;
    promoted2_used_[static_cast<size_t>(c.b)] = 1;
    ++added;
  }
  return added;
}

// ---- Increment driver -------------------------------------------------------

Result<IncrementReport> IncrementalAligner::ProcessIncrement() {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "ProcessIncrement requires FitBase first");
  }
  obs::TraceSpan span("incr/increment");
  const auto t0 = std::chrono::steady_clock::now();

  const kg::KgSnapshot snap1 = kg1_->Snapshot();
  const kg::KgSnapshot snap2 = kg2_->Snapshot();
  SDEA_ASSIGN_OR_RETURN(kg::KgDiff diff1, snap1.DiffSince(last_epoch1_));
  SDEA_ASSIGN_OR_RETURN(kg::KgDiff diff2, snap2.DiffSince(last_epoch2_));

  IncrementReport rep;
  rep.epoch1 = snap1.epoch();
  rep.epoch2 = snap2.epoch();
  rep.diff_rows = diff1.num_new_rel_rows() + diff1.num_new_attr_rows() +
                  diff2.num_new_rel_rows() + diff2.num_new_attr_rows();
  rep.new_entities = diff1.num_new_entities() + diff2.num_new_entities();
  rep.total_entities = snap1.num_entities() + snap2.num_entities();

  // Repair first: demotions feed the re-embed set, so a collapsed pair's
  // entities get retrained in the same increment that demotes them.
  std::vector<kg::EntityId> demoted1;
  std::vector<kg::EntityId> demoted2;
  rep.demoted = RepairPromoted(&demoted1, &demoted2);

  if (diff1.empty() && diff2.empty() && rep.demoted == 0) {
    // Nothing changed anywhere: leave every parameter bitwise-untouched.
    rep.no_op = true;
    rep.total_ms = MsSince(t0);
    if (obs::Enabled()) IncrMetrics::Get().noop_increments->Increment();
    return rep;
  }

  GrowTables(snap1, snap2);

  std::vector<kg::EntityId> touched1 = snap1.TouchedEntities(diff1);
  touched1.insert(touched1.end(), demoted1.begin(), demoted1.end());
  std::vector<kg::EntityId> touched2 = snap2.TouchedEntities(diff2);
  touched2.insert(touched2.end(), demoted2.begin(), demoted2.end());
  rep.touched =
      static_cast<int64_t>(touched1.size() + touched2.size());

  const std::vector<kg::EntityId> affected1 =
      ExpandNeighborhood(snap1, std::move(touched1));
  const std::vector<kg::EntityId> affected2 =
      ExpandNeighborhood(snap2, std::move(touched2));
  rep.affected = static_cast<int64_t>(affected1.size() + affected2.size());

  // Trainable masks: only the affected neighborhood moves. A gold-merged
  // affected KG2 entity shares its KG1 partner's row, so that row unfreezes
  // too. Relations stay frozen except rows this increment introduced.
  ent1_train_.assign(static_cast<size_t>(n1_), 0);
  ent2_train_.assign(static_cast<size_t>(n2_), 0);
  for (kg::EntityId e : affected1) ent1_train_[static_cast<size_t>(e)] = 1;
  for (kg::EntityId e : affected2) {
    ent2_train_[static_cast<size_t>(e)] = 1;
    const int32_t merged = resolve2_[static_cast<size_t>(e)];
    if (merged >= 0) ent1_train_[static_cast<size_t>(merged)] = 1;
  }
  rel1_train_.assign(static_cast<size_t>(nr1_), 0);
  rel2_train_.assign(static_cast<size_t>(nr2_), 0);
  for (int64_t r = diff1.relation_begin; r < diff1.relation_end; ++r) {
    rel1_train_[static_cast<size_t>(r)] = 1;
  }
  for (int64_t r = diff2.relation_begin; r < diff2.relation_end; ++r) {
    rel2_train_[static_cast<size_t>(r)] = 1;
  }

  snap1_ = snap1;
  snap2_ = snap2;
  const std::vector<UnionTriple> triples = CollectAffectedTriples();
  rep.trained_triples = static_cast<int64_t>(triples.size());

  {
    obs::TraceSpan reembed_span("incr/reembed");
    const auto re_t0 = std::chrono::steady_clock::now();
    // Warm start: the task trains net_ itself, so training resumes from
    // the post-growth parameters (old rows carried over, new rows
    // seeded-init).
    SDEA_RETURN_IF_ERROR(RunTraining(triples, opts_.incr_epochs));
    rep.reembed_ms = MsSince(re_t0);
  }
  MaterializeEmbeddings();

  rep.promoted = BootstrapPromote(affected1);

  last_epoch1_ = snap1.epoch();
  last_epoch2_ = snap2.epoch();
  rep.total_ms = MsSince(t0);

  if (obs::Enabled()) {
    const IncrMetrics& m = IncrMetrics::Get();
    m.increments->Increment();
    m.promotions->Increment(static_cast<uint64_t>(rep.promoted));
    m.demotions->Increment(static_cast<uint64_t>(rep.demoted));
    m.diff_rows->Record(static_cast<double>(rep.diff_rows));
    m.touched->Record(static_cast<double>(rep.touched));
    m.affected->Record(static_cast<double>(rep.affected));
    m.reembed_ms->Record(rep.reembed_ms);
  }
  return rep;
}

// ---- Outputs ----------------------------------------------------------------

void IncrementalAligner::MaterializeEmbeddings() {
  const int64_t d = opts_.dim;
  emb1_ = net_->ent1->value;
  emb2_ = Tensor({n2_, d});
  const float* e1 = net_->ent1->value.data();
  const float* e2 = net_->ent2->value.data();
  for (int64_t b = 0; b < n2_; ++b) {
    const int32_t merged = resolve2_[static_cast<size_t>(b)];
    const float* src =
        merged >= 0 ? e1 + static_cast<int64_t>(merged) * d : e2 + b * d;
    std::copy(src, src + d, emb2_.data() + b * d);
  }
}

eval::RankingMetrics IncrementalAligner::Evaluate(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  std::vector<int64_t> gold(static_cast<size_t>(n1_), -1);
  for (const auto& [a, b] : pairs) {
    if (a >= 0 && a < n1_ && b >= 0 && b < n2_) {
      gold[static_cast<size_t>(a)] = b;
    }
  }
  return eval::EvaluateAlignment(emb1_, emb2_, gold);
}

Result<uint64_t> IncrementalAligner::Publish(
    serve::SnapshotManager* manager) const {
  if (!fitted_) {
    return Status::FailedPrecondition("Publish requires FitBase first");
  }
  if (manager == nullptr) {
    return Status::InvalidArgument("Publish: null manager");
  }
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n2_));
  for (int64_t i = 0; i < n2_; ++i) {
    names.push_back(snap2_.entity_name(static_cast<kg::EntityId>(i)));
  }
  SDEA_ASSIGN_OR_RETURN(
      core::EmbeddingStore store,
      core::EmbeddingStore::Create(std::move(names), emb2_));
  // SwapWithKg pairs the embeddings with the pinned snapshot they were
  // computed from — a reader never sees new names against old vectors.
  return manager->SwapWithKg(std::move(store), snap2_);
}

}  // namespace sdea::incr
