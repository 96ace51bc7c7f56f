#include "base/wire.h"

#include <limits>

#include "base/strings.h"

namespace sdea::wire {

Status Reader::Magic(std::string_view magic) {
  if (data_.substr(pos_, magic.size()) != magic) {
    return Status::InvalidArgument(std::string("not an SDEA ") + what_);
  }
  pos_ += magic.size();
  return Status::Ok();
}

Status Reader::NonNegI64(int64_t* v) {
  uint64_t u = 0;
  SDEA_RETURN_IF_ERROR(U64(&u));
  if (u > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Error("value exceeds int64");
  }
  *v = static_cast<int64_t>(u);
  return Status::Ok();
}

Status Reader::Shape(size_t elem_bytes, std::vector<int64_t>* dims,
                     uint64_t* elements) {
  uint64_t rank = 0;
  SDEA_RETURN_IF_ERROR(U64(&rank));
  if (rank > kMaxRank) return Error("tensor rank too large");
  const uint64_t max_elements = remaining() / elem_bytes;
  dims->clear();
  uint64_t product = 1;
  for (uint64_t d = 0; d < rank; ++d) {
    int64_t dim = 0;
    SDEA_RETURN_IF_ERROR(NonNegI64(&dim));
    const uint64_t udim = static_cast<uint64_t>(dim);
    // Divide, never multiply, so a wrapped product cannot pass.
    if (udim != 0 && product > max_elements / udim) {
      return Error("tensor shape exceeds blob size");
    }
    product *= udim;
    dims->push_back(dim);
  }
  *elements = product;
  return Status::Ok();
}

Status Reader::Finish() const {
  if (remaining() != 0) {
    return Error(StrFormat("%zu trailing bytes", remaining()).c_str());
  }
  return Status::Ok();
}

Status Reader::Error(const char* why) const {
  return Status::InvalidArgument(std::string(what_) + ": " + why);
}

Status Reader::Truncated() const { return Error("truncated"); }

}  // namespace sdea::wire
