#ifndef SDEA_CORE_UNSUPERVISED_H_
#define SDEA_CORE_UNSUPERVISED_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "core/attribute_embedding.h"
#include "kg/knowledge_graph.h"

namespace sdea::core {

/// Options for unsupervised pseudo-seed generation.
struct UnsupervisedOptions {
  /// Minimum cosine similarity for a mutual-nearest-neighbor pair to be
  /// accepted as a pseudo seed.
  float min_similarity = 0.6f;
  /// Cap on accepted pseudo seeds (0 = unlimited).
  int64_t max_pairs = 0;
  /// Fraction of pseudo seeds held out as the validation split.
  double valid_fraction = 0.2;
  uint64_t seed = 53;
};

/// Result of pseudo-seed mining.
struct PseudoSeeds {
  kg::AlignmentSeeds seeds;  ///< train/valid filled; test left empty.
  int64_t candidates_considered = 0;
  int64_t accepted = 0;
};

/// Mutually nearest (row, column) pairs of a score matrix [n1, n2]: j is
/// the first maximum of row i and i is the first maximum of column j.
/// Pairs come in ascending row order; each row and column is in at most
/// one pair. Empty when either side is empty.
std::vector<std::pair<int64_t, int64_t>> MutualNearestPairs(
    const Tensor& scores);

/// Unsupervised entity alignment — the direction the paper's related-work
/// section points to ("completely unsupervised solutions"). No alignment
/// labels are used: the attribute module is initialized (tokenizer +
/// token-embedding pre-training, NO fine-tuning), entities are embedded,
/// and mutually-nearest pairs above `min_similarity` become pseudo seeds.
/// The caller then runs the ordinary supervised pipeline on these pseudo
/// seeds (self-training).
///
/// `attr_config` controls the un-fine-tuned encoder; `pretrain_corpus` is
/// the same comparable corpus the supervised path uses.
Result<PseudoSeeds> MinePseudoSeeds(
    const kg::KnowledgeGraph& kg1, const kg::KnowledgeGraph& kg2,
    const AttributeModuleConfig& attr_config,
    const UnsupervisedOptions& options,
    const std::vector<std::string>& pretrain_corpus = {});

/// Precision of pseudo seeds against a known ground truth (for
/// benchmarking the miner itself).
double PseudoSeedPrecision(
    const PseudoSeeds& pseudo,
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& ground_truth);

}  // namespace sdea::core

#endif  // SDEA_CORE_UNSUPERVISED_H_
