#ifndef SDEA_CORE_NUMERIC_CHANNEL_H_
#define SDEA_CORE_NUMERIC_CHANNEL_H_

#include <cstdint>
#include <string_view>

#include "kg/knowledge_graph.h"
#include "tensor/tensor.h"

namespace sdea::core {

/// The paper's Remarks (Section III-A) and error analysis (Section V-B1)
/// call out that subword language models handle numeric values poorly and
/// propose "handling the numeric values separately" as future work. This
/// channel implements that extension: numeric attribute values are parsed
/// and embedded with a magnitude-aware featurizer instead of being left to
/// the tokenizer, and aggregated into one vector per entity that can be
/// concatenated onto the entity embedding.
///
/// The featurizer is deterministic (no training): two numbers are close in
/// feature space iff they are close on a log-magnitude scale and share
/// leading digits — which is exactly the similarity notion that matters
/// for years, counts, and identifiers.
inline constexpr int64_t kNumericFeatureDim = 16;

/// Embeds one numeric value. `out` must have kNumericFeatureDim floats.
void EmbedNumber(double value, float* out);

/// Parses `text` as a number if it is numeric; returns true on success.
bool ParseNumeric(std::string_view text, double* value);

/// Per-entity numeric profile: the mean feature vector of all numeric
/// attribute values (zero rows for entities without numbers), L2-normalized.
/// Shape: [num_entities, kNumericFeatureDim].
Tensor ComputeNumericFeatures(const kg::KnowledgeGraph& graph);

/// Concatenates `base` ([N, D]) with `numeric` ([N, F]) scaled by `weight`
/// — the fusion bench_numeric_sensitivity applies to SDEA's embeddings.
Tensor ConcatNumericChannel(const Tensor& base, const Tensor& numeric,
                            float weight);

}  // namespace sdea::core

#endif  // SDEA_CORE_NUMERIC_CHANNEL_H_
