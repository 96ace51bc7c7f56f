#ifndef SDEA_TENSOR_TOPK_H_
#define SDEA_TENSOR_TOPK_H_

#include <cstdint>
#include <vector>

namespace sdea::tmath {

/// The single top-k used by every ranking site (candidate generation,
/// embedding-store scans, the quantized store's scan survivors, pipeline
/// TopTargets). Returns the positions of the `k` largest scores, ranked
/// best-first, under one TOTAL order shared by all call sites:
///
///   - scores descending;
///   - -0.0 and +0.0 are equal;
///   - every NaN ranks below -infinity, and all NaNs are equal;
///   - ties (including the NaN/±0.0 classes above) break by ascending
///     position (or ascending `tie_ids[position]` for the WithTieIds
///     overload).
///
/// For real-valued scores this is exactly the `score desc, index asc`
/// comparator the call sites used to hand-roll — but it is also a total
/// order on arbitrary floats, where the float comparator fed NaN into
/// std::partial_sort's strict-weak-ordering requirement (undefined
/// behavior) and each site could diverge on near-ties.
///
/// k <= 0 or m <= 0 returns empty; k > m clamps to m.
///
/// Implementation: byte-wise MSD radix select over order-preserving
/// monotone uint32 keys (histogram -> threshold scan -> binning per byte),
/// O(m + k log k) versus partial_sort's O(m log k); the crossover where it
/// wins is recorded in EXPERIMENTS.md. Serial and allocation-light, so
/// callers may invoke it concurrently from sharded query loops.
std::vector<int64_t> TopK(const float* scores, int64_t m, int64_t k);

std::vector<int64_t> TopK(const std::vector<float>& scores, int64_t k);

/// As TopK, but ties break by ascending tie_ids[position] instead of
/// position (used by the exact rerank of scan survivors, whose score array
/// is ordered by scan rank while the contract tie-breaks by row id). tie_ids must have
/// m entries; returned values are positions into `scores`.
std::vector<int64_t> TopKWithTieIds(const float* scores, int64_t m, int64_t k,
                                    const int64_t* tie_ids);

}  // namespace sdea::tmath

#endif  // SDEA_TENSOR_TOPK_H_
