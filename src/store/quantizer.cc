#include "store/quantizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "base/check.h"
#include "base/threadpool.h"
#include "base/wire.h"

namespace sdea::store {
namespace {

constexpr std::string_view kMagic = "SDEACBK1";

}  // namespace

Codebook Codebook::TrainInt8(const Tensor& rows) {
  SDEA_CHECK_EQ(rows.rank(), 2);
  const int64_t n = rows.dim(0), d = rows.dim(1);
  Codebook cb;
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

std::vector<uint8_t> Codebook::EncodeRows(const float* rows,
                                          int64_t n) const {
  const int64_t d = dim_;
  std::vector<uint8_t> codes(static_cast<size_t>(n * d));
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
            const long q =
                std::lround(row[j] / scales_[static_cast<size_t>(j)]);
            const long c = std::max<long>(-127, std::min<long>(127, q));
            code[j] = static_cast<uint8_t>(static_cast<int8_t>(c));
          }
        }
      });
  return codes;
}

void Codebook::DecodeRow(const uint8_t* code, float* out) const {
  for (int64_t j = 0; j < dim_; ++j) {
    out[j] = scales_[static_cast<size_t>(j)] *
             static_cast<float>(static_cast<int8_t>(code[j]));
  }
}

std::string Codebook::Encode() const {
  std::string out;
  wire::Writer w(&out);
  w.Bytes(kMagic);
  w.U64(kInt8Kind);
  w.U64(static_cast<uint64_t>(dim_));
  w.Bytes(scales_.data(), scales_.size() * sizeof(float));
  return out;
}

Result<Codebook> Codebook::Decode(std::string_view in) {
  wire::Reader r(in, "codebook");
  SDEA_RETURN_IF_ERROR(r.Magic(kMagic));
  uint64_t kind = 0, dim = 0;
  SDEA_RETURN_IF_ERROR(r.U64(&kind));
  SDEA_RETURN_IF_ERROR(r.U64(&dim));
  if (kind != kInt8Kind) {
    return Status::InvalidArgument("unknown codebook quantization kind");
  }
  // Payload is dim floats; bound dim against the remaining bytes before
  // allocating (a corrupt all-ones dim must not reach resize()).
  if (dim > r.remaining() / sizeof(float)) {
    return Status::InvalidArgument("codebook scales exceed blob size");
  }
  std::string_view payload;
  SDEA_RETURN_IF_ERROR(
      r.Bytes(static_cast<size_t>(dim) * sizeof(float), &payload));
  SDEA_RETURN_IF_ERROR(r.Finish());
  Codebook cb;
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

}  // namespace sdea::store
