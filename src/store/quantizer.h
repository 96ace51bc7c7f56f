#ifndef SDEA_STORE_QUANTIZER_H_
#define SDEA_STORE_QUANTIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "tensor/tensor.h"

namespace sdea::store {

/// The quantization kind field of the SDEACBK1 codebook blob, the
/// SDEASTOR1 manifest and every SDEASHD1 shard header. Int8 is the only
/// kind, so encoders write this constant and decoders reject any other
/// value as InvalidArgument; the field stays so int8 snapshots keep their
/// bytes.
inline constexpr uint64_t kInt8Kind = 0;

/// A trained int8 quantizer: one byte per component with a per-dimension
/// symmetric scale trained from the data. The scales live in the codebook,
/// not per row, so the code region is exactly dim bytes/row, a 4x
/// reduction over fp32. Holds everything needed to encode rows to codes
/// and to fold the scales into a query for the ADC scan (store/adc.h).
/// Value type with a self-describing binary blob (SDEACBK1) embedded in the
/// store manifest.
///
/// Training is deterministic and independent of thread count: the scales
/// come from a per-dimension max-abs reduction, which no merge order can
/// change.
class Codebook {
 public:
  Codebook() = default;

  /// Per-dimension symmetric int8 scales over `rows` ([n, d]):
  /// scale[j] = max_i |rows[i,j]| / 127 (1.0 for all-zero dimensions, so
  /// encode never divides by zero). Works for n == 0 (all scales 1).
  static Codebook TrainInt8(const Tensor& rows);

  int64_t dim() const { return dim_; }
  /// Bytes per encoded row: one code per dimension.
  int64_t code_bytes() const { return dim_; }

  /// The dim() per-dimension scales (LSB sizes).
  const std::vector<float>& scales() const { return scales_; }

  /// Encodes `n` contiguous rows (row-major, stride dim()) into
  /// n * code_bytes() bytes. Row-sharded across threads; deterministic
  /// for every thread count (each row writes only its own slot, and
  /// rounding is half-away-from-zero).
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
  int64_t dim_ = 0;
  std::vector<float> scales_;  // dim_ entries.
};

}  // namespace sdea::store

#endif  // SDEA_STORE_QUANTIZER_H_
