#include "train/sampler.h"

#include "base/check.h"

namespace sdea::train {

NegativeSampler::NegativeSampler(int64_t num_entities,
                                 std::vector<int64_t> merge)
    : num_entities_(num_entities), merge_(std::move(merge)) {
  SDEA_CHECK_GT(num_entities, 0);
  SDEA_CHECK(merge_.empty() ||
             merge_.size() == static_cast<size_t>(num_entities));
}

NegativeSampler::CorruptedPair NegativeSampler::CorruptHeadOrTail(
    int64_t head, int64_t tail, Rng* rng) const {
  CorruptedPair out{head, tail};
  if (rng->Bernoulli(0.5)) {
    out.head = SampleEntity(rng);
  } else {
    out.tail = SampleEntity(rng);
  }
  return out;
}

int64_t NegativeSampler::SampleEntity(Rng* rng) const {
  return Resolve(static_cast<int64_t>(
      rng->UniformInt(static_cast<uint64_t>(num_entities_))));
}

}  // namespace sdea::train
