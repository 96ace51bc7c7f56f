#ifndef SDEA_TRAIN_SAMPLER_H_
#define SDEA_TRAIN_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"

namespace sdea::train {

/// Uniform-corruption negative sampling for translational-embedding
/// training, extracted from the formerly copy-pasted loops in the TransE
/// and TransEdge baselines. The sampler owns the merged-slot resolution of
/// seed-sharing joint spaces (raw entity id -> shared parameter row; an
/// empty map is the identity) and draws from the caller's Rng so the
/// sampling stream composes deterministically with shuffling and model
/// updates. Call sequences are kept identical to the historical loops —
/// one Bernoulli then one UniformInt for a head-or-tail corruption, one
/// UniformInt for a plain entity draw — so the migrated trainers are
/// bitwise-reproducible against their pre-refactor selves.
class NegativeSampler {
 public:
  /// Draws over `num_entities` raw ids. `merge[raw]` = shared slot of raw
  /// id (seed-sharing); `merge` must be empty (identity) or have exactly
  /// `num_entities` entries.
  explicit NegativeSampler(int64_t num_entities,
                           std::vector<int64_t> merge = {});

  /// Resolves a raw id through the merge map.
  int64_t Resolve(int64_t raw) const {
    return merge_.empty() ? raw : merge_[static_cast<size_t>(raw)];
  }

  /// A (head, tail) pair after corruption; both ids are resolved slots.
  struct CorruptedPair {
    int64_t head;
    int64_t tail;
  };

  /// Bordes-style uniform corruption: picks head or tail with probability
  /// 1/2, replaces it with a uniformly drawn resolved entity, and keeps
  /// the other side. `head`/`tail` are resolved slots. Note the draw may
  /// resolve onto the original slot (the historical loops treat that as a
  /// no-op step); callers decide whether to skip such samples.
  CorruptedPair CorruptHeadOrTail(int64_t head, int64_t tail, Rng* rng) const;

  /// One uniformly drawn resolved entity (TransEdge's tail corruption).
  int64_t SampleEntity(Rng* rng) const;

  int64_t num_entities() const { return num_entities_; }

 private:
  int64_t num_entities_;
  std::vector<int64_t> merge_;
};

}  // namespace sdea::train

#endif  // SDEA_TRAIN_SAMPLER_H_
