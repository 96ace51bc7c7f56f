#ifndef SDEA_STORE_QUANTIZER_H_
#define SDEA_STORE_QUANTIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "tensor/tensor.h"

namespace sdea::store {

/// Compression scheme for stored embedding rows.
enum class Quantization : uint8_t {
  /// 1 byte per component with a per-dimension symmetric scale trained
  /// from the data (the scales live in the codebook, not per row, so the
  /// code region is exactly dim bytes/row — a 4x reduction over fp32).
  kInt8 = 0,
  /// Product quantization: the row is split into `m` subvectors, each
  /// replaced by the index of its nearest codebook centroid — 1 byte per
  /// subspace, a (4*dim/m)x reduction (32x at dim=64, m=8).
  kPq = 1,
};

const char* QuantizationName(Quantization q);

/// Product-quantization training knobs.
struct PqOptions {
  int64_t num_subspaces = 8;     ///< m; dim % m must be 0.
  int64_t num_centroids = 256;   ///< k per subspace, 1..256 (codes are u8).
  int64_t kmeans_iters = 10;
  /// Rows sampled (deterministically) for k-means; training on a sample
  /// keeps codebook fit O(sample) instead of O(N) at the 1M+ scale.
  int64_t train_sample = 65536;
  uint64_t seed = 47;
};

/// Options for KMeansRows, the PQ codebook trainer.
struct KMeansOptions {
  int64_t iters = 6;
  uint64_t seed = 47;
};

struct KMeansResult {
  Tensor centroids;                 ///< [k, d].
  std::vector<int64_t> assignment;  ///< m entries in [0, k).
};

/// Euclidean Lloyd's k-means over `m` row-major rows of `d` floats:
/// assignment by min squared L2 distance, centroids are un-normalized
/// means, since PQ subvectors carry magnitude that quantization must
/// preserve. Deterministic for a fixed seed AND thread count-independent:
/// the assignment pass shards rows across base::ThreadPool with each row
/// writing only its own slot, and every tie (equidistant centroids) breaks
/// toward the lowest centroid index. Seeds are k distinct random rows; a
/// cluster left empty after an update round is re-seeded with a random
/// row. The returned assignment is computed against the FINAL centroids
/// (one extra assignment pass after the last update), so callers can
/// bucket rows without a stale-centroid mismatch. k is clamped to m;
/// m == 0 returns empty.
KMeansResult KMeansRows(const float* rows, int64_t m, int64_t d, int64_t k,
                        const KMeansOptions& options);

/// A trained quantizer: everything needed to encode rows to codes and to
/// build per-query ADC lookup tables (store/adc.h). Value type with a
/// self-describing binary blob (SDEACBK1) embedded in the store manifest.
///
/// Training is deterministic for a fixed seed and independent of thread
/// count: int8 scales come from a serial per-dimension max-abs pass, and
/// PQ centroids from KMeansRows, whose assignment pass is row-sharded with
/// ties broken to the lowest centroid index.
class Codebook {
 public:
  Codebook() = default;

  /// Per-dimension symmetric int8 scales over `rows` ([n, d]):
  /// scale[j] = max_i |rows[i,j]| / 127 (1.0 for all-zero dimensions, so
  /// encode never divides by zero). Works for n == 0 (all scales 1).
  static Codebook TrainInt8(const Tensor& rows);

  /// PQ codebooks over `rows` ([n, d]) via Euclidean k-means per subspace
  /// on a deterministic sample. Rejects dim % num_subspaces != 0,
  /// num_centroids outside [1, 256], or n == 0. The effective number of
  /// centroids is clamped to the sample size (codes stay valid).
  static Result<Codebook> TrainPq(const Tensor& rows,
                                  const PqOptions& options);

  Quantization kind() const { return kind_; }
  int64_t dim() const { return dim_; }
  /// Bytes per encoded row: dim (int8) or num_subspaces (PQ).
  int64_t code_bytes() const;

  /// Int8 only: the dim() per-dimension scales (LSB sizes).
  const std::vector<float>& scales() const { return scales_; }

  /// PQ only.
  int64_t pq_subspaces() const { return pq_m_; }
  int64_t pq_centroids() const { return pq_k_; }
  int64_t pq_subdim() const { return pq_m_ > 0 ? dim_ / pq_m_ : 0; }
  /// [pq_subspaces * pq_centroids, pq_subdim], subspace-major: the
  /// centroid c of subspace s is row s * pq_centroids + c.
  const Tensor& centroids() const { return centroids_; }

  /// Encodes `n` contiguous rows (row-major, stride dim()) into
  /// n * code_bytes() bytes. Row-sharded across threads; deterministic
  /// for every thread count (each row writes only its own slot, int8
  /// rounding is half-away-from-zero, PQ assignment ties break to the
  /// lowest centroid index).
  std::vector<uint8_t> EncodeRows(const float* rows, int64_t n) const;

  /// Reconstructs one row from its code (tests and diagnostics; the query
  /// path never decodes — it scores codes directly via ADC).
  void DecodeRow(const uint8_t* code, float* out) const;

  /// SDEACBK1 blob. Decode is robust against arbitrary bytes: malformed
  /// input returns InvalidArgument, never a crash or an unbounded
  /// allocation (fuzzed in tests/fuzz_store_test.cc).
  std::string Encode() const;
  static Result<Codebook> Decode(std::string_view blob);

 private:
  Quantization kind_ = Quantization::kInt8;
  int64_t dim_ = 0;
  std::vector<float> scales_;  // int8: dim_ entries.
  int64_t pq_m_ = 0;           // PQ: subspaces.
  int64_t pq_k_ = 0;           // PQ: centroids per subspace.
  Tensor centroids_;           // PQ: [pq_m_ * pq_k_, dim_ / pq_m_].
};

}  // namespace sdea::store

#endif  // SDEA_STORE_QUANTIZER_H_
