#include "store/quantizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "base/check.h"
#include "base/rng.h"
#include "base/threadpool.h"
#include "base/wire.h"
#include "tensor/kernels.h"

namespace sdea::store {
namespace {

constexpr std::string_view kMagic = "SDEACBK1";

// assignment[i] = the centroid nearest row i by squared L2 distance, ties
// to the lowest j, via the equivalent argmax of (x . c - 0.5*||c||^2). The
// scores come from the MatmulTransposeB row kernel, which equals ScoreDot
// bitwise, a block of rows at a time so the score buffer stays small. Rows
// are sharded across threads; each row writes only its own slot, so the
// assignment is identical for every thread count.
void AssignToNearestCentroid(const float* rows, int64_t m, int64_t d,
                             const Tensor& centroids,
                             std::vector<int64_t>* assignment) {
  constexpr int64_t kBlockRows = 64;
  const int64_t c = centroids.dim(0);
  std::vector<float> half_norms(static_cast<size_t>(c));
  for (int64_t j = 0; j < c; ++j) {
    const float* crow = centroids.data() + j * d;
    half_norms[static_cast<size_t>(j)] =
        0.5f * tmath::kernels::ScoreDot(crow, crow, d);
  }
  // A shard packs the centroids once per block (see MatmulTransposeB), so
  // shards are at least one block long.
  const int64_t grain =
      std::max(base::GrainForWork(m, c * d), std::min(m, kBlockRows));
  base::ParallelFor(
      m, grain, [&](int64_t begin, int64_t end) {
        std::vector<float> scores(
            static_cast<size_t>(std::min(kBlockRows, end - begin) * c));
        for (int64_t first = begin; first < end; first += kBlockRows) {
          const int64_t count = std::min(kBlockRows, end - first);
          tmath::kernels::MatmulTransposeBRows(rows + first * d,
                                               centroids.data(), scores.data(),
                                               d, c, 0, count);
          for (int64_t r = 0; r < count; ++r) {
            const float* row_scores = scores.data() + r * c;
            int64_t best = 0;
            float best_score = -std::numeric_limits<float>::infinity();
            for (int64_t j = 0; j < c; ++j) {
              const float s =
                  row_scores[j] - half_norms[static_cast<size_t>(j)];
              if (s > best_score) {
                best_score = s;
                best = j;
              }
            }
            (*assignment)[static_cast<size_t>(first + r)] = best;
          }
        }
      });
}

}  // namespace

KMeansResult KMeansRows(const float* rows, int64_t m, int64_t d, int64_t k,
                        const KMeansOptions& options) {
  KMeansResult result;
  if (m == 0) {
    result.centroids = Tensor({0, d});
    return result;
  }
  k = std::min(std::max<int64_t>(k, 1), m);
  const auto set_centroid = [&](int64_t j, int64_t row) {
    std::copy_n(rows + row * d, d, result.centroids.data() + j * d);
  };

  // k-means++ style init: random distinct rows as seeds.
  Rng rng(options.seed);
  const std::vector<size_t> seeds = rng.SampleWithoutReplacement(
      static_cast<size_t>(m), static_cast<size_t>(k));
  result.centroids = Tensor({k, d});
  for (int64_t i = 0; i < k; ++i) {
    set_centroid(i, static_cast<int64_t>(seeds[static_cast<size_t>(i)]));
  }

  result.assignment.assign(static_cast<size_t>(m), 0);
  for (int64_t iter = 0; iter < options.iters; ++iter) {
    AssignToNearestCentroid(rows, m, d, result.centroids, &result.assignment);
    // Recompute centroids as means.
    result.centroids.Zero();
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (int64_t i = 0; i < m; ++i) {
      const int64_t a = result.assignment[static_cast<size_t>(i)];
      ++counts[static_cast<size_t>(a)];
      float* crow = result.centroids.data() + a * d;
      const float* row = rows + i * d;
      for (int64_t j = 0; j < d; ++j) crow[j] += row[j];
    }
    for (int64_t j = 0; j < k; ++j) {
      const int64_t n_j = counts[static_cast<size_t>(j)];
      if (n_j == 0) {
        // Re-seed an empty cluster with a random row.
        set_centroid(j, static_cast<int64_t>(
                            rng.UniformInt(static_cast<uint64_t>(m))));
      } else {
        float* crow = result.centroids.data() + j * d;
        const float inv = 1.0f / static_cast<float>(n_j);
        for (int64_t jj = 0; jj < d; ++jj) crow[jj] *= inv;
      }
    }
  }

  // The loop above ends with a centroid update (possibly reseeding empty
  // clusters), so `assignment` describes the *previous* centroids.
  // Re-assign against the final centroids; otherwise callers bucketing by
  // assignment disagree with the returned centroids, and a cluster
  // reseeded on the last iteration would always own an empty bucket.
  AssignToNearestCentroid(rows, m, d, result.centroids, &result.assignment);
  return result;
}

const char* QuantizationName(Quantization q) {
  switch (q) {
    case Quantization::kInt8:
      return "int8";
    case Quantization::kPq:
      return "pq";
  }
  return "unknown";
}

int64_t Codebook::code_bytes() const {
  return kind_ == Quantization::kInt8 ? dim_ : pq_m_;
}

Codebook Codebook::TrainInt8(const Tensor& rows) {
  SDEA_CHECK_EQ(rows.rank(), 2);
  const int64_t n = rows.dim(0), d = rows.dim(1);
  Codebook cb;
  cb.kind_ = Quantization::kInt8;
  cb.dim_ = d;
  std::vector<float> max_abs(static_cast<size_t>(d), 0.0f);
  // Row-sharded max-abs reduction. Each shard folds into the shared
  // accumulator under a mutex; max is commutative and associative, so the
  // merge order (hence thread count) cannot change the result.
  std::mutex mu;
  base::ParallelFor(n, base::GrainForWork(n, d),
                    [&](int64_t begin, int64_t end) {
                      std::vector<float> local(static_cast<size_t>(d), 0.0f);
                      for (int64_t i = begin; i < end; ++i) {
                        const float* row = rows.data() + i * d;
                        for (int64_t j = 0; j < d; ++j) {
                          local[static_cast<size_t>(j)] = std::max(
                              local[static_cast<size_t>(j)],
                              std::fabs(row[j]));
                        }
                      }
                      std::lock_guard<std::mutex> lock(mu);
                      for (int64_t j = 0; j < d; ++j) {
                        max_abs[static_cast<size_t>(j)] = std::max(
                            max_abs[static_cast<size_t>(j)],
                            local[static_cast<size_t>(j)]);
                      }
                    });
  cb.scales_.resize(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) {
    const float m = max_abs[static_cast<size_t>(j)];
    // All-zero (or non-finite-free zero-range) dimensions quantize to 0
    // whatever the scale; 1.0 keeps encode division well-defined.
    cb.scales_[static_cast<size_t>(j)] = m > 0.0f ? m / 127.0f : 1.0f;
  }
  return cb;
}

Result<Codebook> Codebook::TrainPq(const Tensor& rows,
                                   const PqOptions& options) {
  if (rows.rank() != 2) {
    return Status::InvalidArgument("PQ training needs a [n, d] matrix");
  }
  const int64_t n = rows.dim(0), d = rows.dim(1);
  const int64_t m = options.num_subspaces;
  if (n == 0) {
    return Status::InvalidArgument("PQ training needs at least one row");
  }
  if (m <= 0 || d % m != 0) {
    return Status::InvalidArgument(
        "PQ subspaces must divide the dimension evenly");
  }
  if (options.num_centroids < 1 || options.num_centroids > 256) {
    return Status::InvalidArgument("PQ centroids must be in [1, 256]");
  }
  const int64_t subdim = d / m;

  // Deterministic training sample: distinct random rows, sorted ascending
  // so the gather below is cache-friendly and independent of the sample
  // order the RNG happened to produce.
  std::vector<int64_t> sample;
  if (n > options.train_sample && options.train_sample > 0) {
    Rng rng(options.seed);
    std::vector<size_t> picks = rng.SampleWithoutReplacement(
        static_cast<size_t>(n), static_cast<size_t>(options.train_sample));
    sample.assign(picks.begin(), picks.end());
    std::sort(sample.begin(), sample.end());
  } else {
    sample.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) sample[static_cast<size_t>(i)] = i;
  }
  const int64_t sn = static_cast<int64_t>(sample.size());
  const int64_t k = std::min<int64_t>(options.num_centroids, sn);

  Codebook cb;
  cb.kind_ = Quantization::kPq;
  cb.dim_ = d;
  cb.pq_m_ = m;
  cb.pq_k_ = k;
  cb.centroids_ = Tensor({m * k, subdim});
  // One k-means per subspace over the gathered subvectors. Distinct seeds
  // per subspace so identical subspace distributions don't share init
  // rows.
  Tensor sub({sn, subdim});
  for (int64_t s = 0; s < m; ++s) {
    for (int64_t i = 0; i < sn; ++i) {
      std::memcpy(sub.data() + i * subdim,
                  rows.data() + sample[static_cast<size_t>(i)] * d +
                      s * subdim,
                  static_cast<size_t>(subdim) * sizeof(float));
    }
    KMeansOptions km;
    km.iters = options.kmeans_iters;
    km.seed = options.seed + static_cast<uint64_t>(s);
    KMeansResult result = KMeansRows(sub.data(), sn, subdim, k, km);
    SDEA_CHECK_EQ(result.centroids.dim(0), k);
    std::memcpy(cb.centroids_.data() + s * k * subdim,
                result.centroids.data(),
                static_cast<size_t>(k * subdim) * sizeof(float));
  }
  return cb;
}

std::vector<uint8_t> Codebook::EncodeRows(const float* rows,
                                          int64_t n) const {
  const int64_t d = dim_;
  const int64_t cb_bytes = code_bytes();
  std::vector<uint8_t> codes(static_cast<size_t>(n * cb_bytes));
  if (n == 0) return codes;

  if (kind_ == Quantization::kInt8) {
    base::ParallelFor(
        n, base::GrainForWork(n, d), [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            const float* row = rows + i * d;
            uint8_t* code = codes.data() + i * d;
            for (int64_t j = 0; j < d; ++j) {
              // Half-away-from-zero rounding (lround), clamped to the
              // symmetric [-127, 127] range: one deterministic code per
              // value on every platform, no -128 asymmetry to special-case
              // in the ADC kernels.
              const long q = std::lround(
                  row[j] / scales_[static_cast<size_t>(j)]);
              const long c = std::max<long>(-127, std::min<long>(127, q));
              code[j] = static_cast<uint8_t>(static_cast<int8_t>(c));
            }
          }
        });
    return codes;
  }

  // PQ: nearest centroid per subspace by squared L2, via the same
  // argmax(x.c - 0.5*||c||^2) trick the k-means assignment pass uses, so
  // encode agrees with training about every tie (lowest index wins).
  const int64_t sub = pq_subdim();
  std::vector<float> half_norms(static_cast<size_t>(pq_m_ * pq_k_));
  for (int64_t j = 0; j < pq_m_ * pq_k_; ++j) {
    const float* crow = centroids_.data() + j * sub;
    half_norms[static_cast<size_t>(j)] =
        0.5f * tmath::kernels::ScoreDot(crow, crow, sub);
  }
  base::ParallelFor(
      n, base::GrainForWork(n, pq_m_ * pq_k_ * sub),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const float* row = rows + i * d;
          uint8_t* code = codes.data() + i * pq_m_;
          for (int64_t s = 0; s < pq_m_; ++s) {
            const float* x = row + s * sub;
            int64_t best = 0;
            float best_score = -std::numeric_limits<float>::infinity();
            for (int64_t c = 0; c < pq_k_; ++c) {
              const int64_t idx = s * pq_k_ + c;
              const float score =
                  tmath::kernels::ScoreDot(
                      x, centroids_.data() + idx * sub, sub) -
                  half_norms[static_cast<size_t>(idx)];
              if (score > best_score) {
                best_score = score;
                best = c;
              }
            }
            code[s] = static_cast<uint8_t>(best);
          }
        }
      });
  return codes;
}

void Codebook::DecodeRow(const uint8_t* code, float* out) const {
  if (kind_ == Quantization::kInt8) {
    for (int64_t j = 0; j < dim_; ++j) {
      out[j] = scales_[static_cast<size_t>(j)] *
               static_cast<float>(static_cast<int8_t>(code[j]));
    }
    return;
  }
  const int64_t sub = pq_subdim();
  for (int64_t s = 0; s < pq_m_; ++s) {
    const int64_t c = static_cast<int64_t>(code[s]);
    std::memcpy(out + s * sub,
                centroids_.data() + (s * pq_k_ + c) * sub,
                static_cast<size_t>(sub) * sizeof(float));
  }
}

std::string Codebook::Encode() const {
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kMagic);
  w.U64(static_cast<uint64_t>(kind_));
  w.U64(static_cast<uint64_t>(dim_));
  if (kind_ == Quantization::kInt8) {
    w.Bytes(scales_.data(), scales_.size() * sizeof(float));
  } else {
    w.U64(static_cast<uint64_t>(pq_m_));
    w.U64(static_cast<uint64_t>(pq_k_));
    w.Bytes(centroids_.data(),
            static_cast<size_t>(centroids_.size()) * sizeof(float));
  }
  return out;
}

Result<Codebook> Codebook::Decode(std::string_view in) {
  wire::Reader r(in, "codebook");
  SDEA_RETURN_IF_ERROR(r.Magic(kMagic));
  uint64_t kind = 0, dim = 0;
  SDEA_RETURN_IF_ERROR(r.U64(&kind));
  SDEA_RETURN_IF_ERROR(r.U64(&dim));
  if (kind != static_cast<uint64_t>(Quantization::kInt8) &&
      kind != static_cast<uint64_t>(Quantization::kPq)) {
    return Status::InvalidArgument("unknown codebook quantization kind");
  }
  Codebook cb;
  cb.kind_ = static_cast<Quantization>(kind);

  if (cb.kind_ == Quantization::kInt8) {
    // Payload is dim floats; bound dim against the remaining bytes before
    // allocating (a corrupt all-ones dim must not reach resize()).
    if (dim > r.remaining() / sizeof(float)) {
      return Status::InvalidArgument("codebook scales exceed blob size");
    }
    std::string_view payload;
    SDEA_RETURN_IF_ERROR(
        r.Bytes(static_cast<size_t>(dim) * sizeof(float), &payload));
    SDEA_RETURN_IF_ERROR(r.Finish());
    cb.dim_ = static_cast<int64_t>(dim);
    cb.scales_.resize(static_cast<size_t>(dim));
    if (dim > 0) std::memcpy(cb.scales_.data(), payload.data(), payload.size());
    for (float s : cb.scales_) {
      if (!(s > 0.0f) || !std::isfinite(s)) {
        return Status::InvalidArgument("codebook scales must be positive");
      }
    }
    return cb;
  }

  uint64_t m = 0, k = 0;
  SDEA_RETURN_IF_ERROR(r.U64(&m));
  SDEA_RETURN_IF_ERROR(r.U64(&k));
  // dim bounded first so every later product stays far from overflow:
  // the centroid payload is exactly k * dim floats (m * k centroids of
  // dim/m components each), k <= 256.
  const uint64_t max_floats = r.remaining() / sizeof(float);
  if (dim == 0 || dim > max_floats) {
    return Status::InvalidArgument("PQ codebook dim exceeds blob size");
  }
  if (m == 0 || m > dim || dim % m != 0) {
    return Status::InvalidArgument("PQ subspaces must divide dim");
  }
  if (k == 0 || k > 256) {
    return Status::InvalidArgument("PQ centroid count must be in [1, 256]");
  }
  if (k * dim > max_floats) {
    return Status::InvalidArgument("PQ centroids exceed blob size");
  }
  std::string_view payload;
  SDEA_RETURN_IF_ERROR(
      r.Bytes(static_cast<size_t>(k * dim) * sizeof(float), &payload));
  SDEA_RETURN_IF_ERROR(r.Finish());
  cb.dim_ = static_cast<int64_t>(dim);
  cb.pq_m_ = static_cast<int64_t>(m);
  cb.pq_k_ = static_cast<int64_t>(k);
  cb.centroids_ = Tensor({cb.pq_m_ * cb.pq_k_, cb.dim_ / cb.pq_m_});
  std::memcpy(cb.centroids_.data(), payload.data(), payload.size());
  for (int64_t i = 0; i < cb.centroids_.size(); ++i) {
    if (!std::isfinite(cb.centroids_.data()[i])) {
      return Status::InvalidArgument("PQ centroids must be finite");
    }
  }
  return cb;
}

}  // namespace sdea::store
