#ifndef SDEA_BASE_WIRE_H_
#define SDEA_BASE_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/status.h"

namespace sdea::wire {

// The one codec behind every SDEA binary format: SDEAKGB2, SDEACKP1,
// SDEATRN1 (with the optimizer state inside it), SDEAEMB1, SDEACBK1, the
// SDEASTOR1 manifest, SDEASHD1 shard headers and SDEAINC1. Integers and
// floats are fixed-width little-endian; strings carry a u32 (SDEAKGB2) or
// u64 (every other format) length prefix.
//
// The Reader owns the DESIGN.md §8 decoder contract, so no format
// re-implements it: every read is bounds-checked against the bytes left,
// counts are checked in budget form (n <= remaining / min_entry_bytes)
// before any loop or allocation, int64 fields and tensor shapes are
// overflow-safe, and Finish() rejects trailing bytes. Every failure is
// InvalidArgument; nothing throws, aborts, or reads past the end.

static_assert(std::endian::native == std::endian::little,
              "the wire formats copy host integers as little-endian");

/// Unaligned u64 load from raw bytes (the mmap'd shard name index, read on
/// every served answer). memcpy compiles to a plain load on x86 but stays
/// defined on any alignment.
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Appends fields to a caller-owned string.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  /// `n` u32s in one copy (SDEAKGB2's id columns).
  void U32s(const uint32_t* v, size_t n) { Bytes(v, n * sizeof(uint32_t)); }
  /// Raw bytes with no length prefix: magics and float payloads.
  void Bytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  void Bytes(std::string_view bytes) { Bytes(bytes.data(), bytes.size()); }
  /// Length-prefixed strings: u32 prefix (SDEAKGB2) or u64 prefix.
  void Str32(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s);
  }
  void Str64(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }

 private:
  std::string* out_;
};

/// Reads fields from a view (an in-memory blob or mmap'd bytes), which
/// must outlive the Reader and any view it hands out. `what` names the
/// format in error messages ("trainer checkpoint").
class Reader {
 public:
  Reader(std::string_view data, const char* what)
      : data_(data), what_(what) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

  /// Consumes `magic` (any length) or fails with "not an SDEA <what>".
  Status Magic(std::string_view magic);

  Status U8(uint8_t* v) { return Fixed(v); }
  Status U32(uint32_t* v) { return Fixed(v); }
  Status U64(uint64_t* v) { return Fixed(v); }
  Status F64(double* v) { return Fixed(v); }
  /// A u64 that must fit a non-negative int64 (counters, dims): a corrupt
  /// value at or past 2^63 fails instead of turning negative.
  Status NonNegI64(int64_t* v);
  /// `n` u32s in one copy into `out`.
  Status U32s(size_t n, uint32_t* out) {
    if (n > remaining() / sizeof(uint32_t)) return Truncated();
    if (n > 0) std::memcpy(out, data_.data() + pos_, n * sizeof(uint32_t));
    pos_ += n * sizeof(uint32_t);
    return Status::Ok();
  }
  /// The next `n` bytes, as a view into the input.
  Status Bytes(uint64_t n, std::string_view* out) {
    if (n > remaining()) return Truncated();
    *out = data_.substr(pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return Status::Ok();
  }
  /// Length-prefixed strings, matching Writer::Str32 / Writer::Str64. The
  /// length is checked against the bytes left before anything is copied.
  Status Str32(std::string* s) {
    uint32_t n = 0;
    SDEA_RETURN_IF_ERROR(U32(&n));
    return Assign(n, s);
  }
  Status Str64(std::string* s) {
    uint64_t n = 0;
    SDEA_RETURN_IF_ERROR(U64(&n));
    return Assign(n, s);
  }
  Status Str64(std::string_view* s) {
    uint64_t n = 0;
    SDEA_RETURN_IF_ERROR(U64(&n));
    return Bytes(n, s);
  }

  /// Reads an entry count (u32 or u64, by the type of `n`) whose entries
  /// each take at least `min_entry_bytes` (> 0), and fails unless
  /// n <= remaining / min_entry_bytes: a corrupt all-ones count fails in
  /// O(1), before any loop or allocation.
  template <typename T>
  Status Count(size_t min_entry_bytes, T* n) {
    static_assert(std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t>);
    SDEA_RETURN_IF_ERROR(Fixed(n));
    if (*n > remaining() / min_entry_bytes) {
      return Error("count exceeds blob size");
    }
    return Status::Ok();
  }

  /// Reads a tensor shape: a u64 rank (at most kMaxRank), then that many
  /// u64 dims. Fails unless every dim fits int64 and the element count,
  /// at `elem_bytes` each, fits in what was left after the rank; the
  /// product is formed without overflow. `*elements` receives it, so the
  /// caller's Bytes(*elements * elem_bytes) cannot wrap.
  static constexpr uint64_t kMaxRank = 8;
  Status Shape(size_t elem_bytes, std::vector<int64_t>* dims,
               uint64_t* elements);

  /// Ok only when every byte has been consumed: the one end-of-blob rule.
  Status Finish() const;

 private:
  template <typename T>
  Status Fixed(T* v) {
    if (remaining() < sizeof(T)) return Truncated();
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }
  Status Assign(uint64_t n, std::string* s) {
    std::string_view bytes;
    SDEA_RETURN_IF_ERROR(Bytes(n, &bytes));
    s->assign(bytes);
    return Status::Ok();
  }
  Status Error(const char* why) const;
  Status Truncated() const;

  std::string_view data_;
  size_t pos_ = 0;
  const char* what_;
};

}  // namespace sdea::wire

#endif  // SDEA_BASE_WIRE_H_
