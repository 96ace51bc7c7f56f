#ifndef SDEA_INCR_ALIGNER_H_
#define SDEA_INCR_ALIGNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "eval/metrics.h"
#include "kg/knowledge_graph.h"
#include "serve/snapshot.h"
#include "tensor/tensor.h"

namespace sdea::incr {

struct IncrementalAlignerOptions {
  int64_t dim = 64;
  float lr = 0.01f;
  float margin = 1.5f;      ///< TransE hinge margin.
  int64_t base_epochs = 60; ///< FitBase epochs over all triples.
  int64_t incr_epochs = 20; ///< Re-embed epochs over the affected triples.

  /// Affected-neighborhood expansion: entities within `k_hops` of a touched
  /// entity are re-embedded. Entities with relational degree above
  /// `hub_degree_cap` are re-embedded when reached but not expanded
  /// through — without the cap, one edge to a type-concept hub would pull
  /// in nearly the whole graph and defeat incrementality.
  int64_t k_hops = 2;
  int64_t hub_degree_cap = 64;

  /// Hard budget on the re-embed set: the BFS stops admitting entities
  /// once a side's affected set reaches this fraction of that side's
  /// entities. Admission is closest-first (all touched entities, then hop
  /// 1, then hop 2, ...), and diff-touched entities are always admitted —
  /// a stale embedding for a changed entity is never acceptable. <= 0
  /// disables the budget.
  double affected_frac_cap = 0.15;

  /// Bootstrapping (BootEA-lite): mutually-nearest pairs scoring at least
  /// `bootstrap_threshold` cosine with a top-2 margin of at least
  /// `bootstrap_margin` are promoted to pseudo-seeds, at most
  /// `bootstrap_cap` per increment. Pseudo-seeds are pulled together with
  /// `pull_lr` each epoch — *soft* alignment, unlike gold seeds which share
  /// an embedding slot. Soft matters: the repair pass can still measure a
  /// promoted pair's margin (a hard-merged pair always scores 1.0).
  float pull_lr = 0.005f;
  float bootstrap_threshold = 0.7f;
  float bootstrap_margin = 0.02f;
  int64_t bootstrap_cap = 500;

  /// Repair: before each re-embed, promoted pairs that lost mutual
  /// nearest-neighborhood or fell under `repair_threshold` cosine are
  /// demoted and their entities joined to the re-embed set.
  float repair_threshold = 0.5f;

  uint64_t seed = 17;
};

/// What one ProcessIncrement() did, for reporting and the staleness-vs-cost
/// benchmark.
struct IncrementReport {
  uint64_t epoch1 = 0;  ///< KG1 epoch this increment advanced to.
  uint64_t epoch2 = 0;
  int64_t diff_rows = 0;      ///< New triple rows across both diffs.
  int64_t new_entities = 0;   ///< Newly interned entities across both KGs.
  int64_t touched = 0;        ///< Diff-touched + repair-demoted entities.
  int64_t affected = 0;       ///< After k-hop expansion (the re-embed set).
  int64_t total_entities = 0; ///< n1 + n2 after the increment.
  int64_t trained_triples = 0;
  int64_t promoted = 0;  ///< Bootstrap promotions this increment.
  int64_t demoted = 0;   ///< Repair demotions this increment.
  double reembed_ms = 0.0;
  double total_ms = 0.0;
  bool no_op = false;  ///< Both diffs empty and nothing to repair.

  double affected_frac() const {
    return total_entities > 0
               ? static_cast<double>(affected) /
                     static_cast<double>(total_entities)
               : 0.0;
  }
};

/// Incremental entity alignment over a streaming KG pair.
///
/// FitBase() trains a TransE-style structural model over the union of both
/// graphs (gold seed pairs share one embedding slot). After each streamed
/// increment is applied to the graphs, ProcessIncrement():
///
///   1. diffs both KGs against the epochs of the previous fit
///      (KgSnapshot::DiffSince — the MVCC epoch journal),
///   2. repairs: re-scores promoted pseudo-seed pairs and demotes the ones
///      whose margin collapsed, queueing their entities for re-embedding,
///   3. expands the diff-touched entities k hops to the affected
///      neighborhood (hub-capped),
///   4. re-embeds *only* the affected rows: training resumes from the
///      current parameters and every SGD write is gated by a per-row
///      trainable mask, so frozen embeddings come out bitwise-unchanged,
///   5. bootstraps: promotes mutually-nearest high-margin pairs into the
///      pseudo-seed set for subsequent increments.
///
/// An increment with empty diffs and nothing to repair is a complete no-op
/// — embeddings are left bitwise-identical (the zero-diff golden test).
///
/// The model keeps *separate* entity tables per KG (not one offset union
/// table) so each side can grow independently without renumbering the
/// other side's rows across increments.
///
/// Single-threaded driver, like the store's writer API. Publish() hands
/// the result to the concurrent serving stack.
class IncrementalAligner {
 public:
  IncrementalAligner(kg::KnowledgeGraph* kg1, kg::KnowledgeGraph* kg2,
                     IncrementalAlignerOptions options = {});
  ~IncrementalAligner();

  IncrementalAligner(const IncrementalAligner&) = delete;
  IncrementalAligner& operator=(const IncrementalAligner&) = delete;

  /// Trains the base model on the current state of both graphs. `seeds`
  /// are gold training pairs (kg1 id, kg2 id); each pair shares one
  /// embedding slot.
  Status FitBase(
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& seeds);

  /// Processes everything committed to either graph since the last
  /// FitBase/ProcessIncrement. Requires FitBase first.
  Result<IncrementReport> ProcessIncrement();

  /// Resolved embeddings ([n, dim], row = entity id) as of the last fit.
  /// embeddings2 rows of seed-merged entities are their KG1 partner's row.
  const Tensor& embeddings1() const { return emb1_; }
  const Tensor& embeddings2() const { return emb2_; }

  /// Ranks each kg1 entity in `pairs` against all kg2 entities by cosine.
  eval::RankingMetrics Evaluate(
      const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const;

  /// Publishes the KG2 embeddings keyed by entity name, paired with the
  /// exact KG snapshot they were computed from (SwapWithKg) — serving
  /// never observes a torn KG/embedding combination. Returns the published
  /// version.
  Result<uint64_t> Publish(serve::SnapshotManager* manager) const;

  /// Current pseudo-seed pairs (bootstrap promotions that survived repair).
  const std::vector<std::pair<kg::EntityId, kg::EntityId>>& promoted_pairs()
      const {
    return promoted_;
  }

  uint64_t last_epoch1() const { return last_epoch1_; }
  uint64_t last_epoch2() const { return last_epoch2_; }

 private:
  struct Net;
  struct UnionTriple {
    int32_t head;
    int32_t relation;
    int32_t tail;
    int8_t side;  ///< 1 or 2; ids are side-local.
  };
  class Task;
  friend class Task;

  /// The embedding row backing (side, id) after seed-merge resolution.
  struct Slot {
    float* p;
    bool trainable;
  };
  Slot EntSlot(int8_t side, int32_t id);
  bool RowTrainable(int8_t side, int32_t id) const;

  void TrainTriple(const UnionTriple& t);
  void PullPromoted();
  void NormalizeTrainable();
  Status RunTraining(const std::vector<UnionTriple>& triples, int64_t epochs);
  std::vector<UnionTriple> CollectAllTriples() const;
  std::vector<UnionTriple> CollectAffectedTriples() const;
  void GrowTables(const kg::KgSnapshot& snap1, const kg::KgSnapshot& snap2);
  Tensor GrownTable(const Tensor& old, int64_t new_rows);
  std::vector<kg::EntityId> ExpandNeighborhood(
      const kg::KgSnapshot& snap, std::vector<kg::EntityId> touched) const;
  void MaterializeEmbeddings();
  int64_t RepairPromoted(std::vector<kg::EntityId>* demoted1,
                         std::vector<kg::EntityId>* demoted2);
  int64_t BootstrapPromote(const std::vector<kg::EntityId>& candidates1);

  kg::KnowledgeGraph* kg1_;
  kg::KnowledgeGraph* kg2_;
  IncrementalAlignerOptions opts_;
  Rng rng_;

  bool fitted_ = false;
  kg::KgSnapshot snap1_;  ///< Pinned state of the last fit.
  kg::KgSnapshot snap2_;
  uint64_t last_epoch1_ = 0;
  uint64_t last_epoch2_ = 0;

  int64_t n1_ = 0;  ///< Entity/relation table sizes (match the snapshots).
  int64_t n2_ = 0;
  int64_t nr1_ = 0;
  int64_t nr2_ = 0;

  std::unique_ptr<Net> net_;

  /// resolve2_[b] = kg1 partner id for gold-seeded b, else -1.
  std::vector<int32_t> resolve2_;
  std::vector<uint8_t> seed_used1_;  ///< kg1 ids taken by a gold seed.

  std::vector<std::pair<kg::EntityId, kg::EntityId>> promoted_;
  std::vector<uint8_t> promoted1_used_;
  std::vector<uint8_t> promoted2_used_;

  /// Per-row trainable masks (all 1 during FitBase; affected-only during
  /// increments).
  std::vector<uint8_t> ent1_train_;
  std::vector<uint8_t> ent2_train_;
  std::vector<uint8_t> rel1_train_;
  std::vector<uint8_t> rel2_train_;

  Tensor emb1_;  ///< Materialized resolved embeddings of the last fit.
  Tensor emb2_;
};

}  // namespace sdea::incr

#endif  // SDEA_INCR_ALIGNER_H_
