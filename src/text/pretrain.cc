#include "text/pretrain.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "base/rng.h"
#include "tensor/kernels.h"

namespace sdea::text {

Result<Tensor> CooccurrencePretrainer::Train(
    const std::vector<std::string>& corpus, const SubwordTokenizer& tokenizer,
    const PretrainConfig& config) const {
  if (!tokenizer.trained()) {
    return Status::FailedPrecondition("tokenizer must be trained first");
  }
  if (corpus.empty()) {
    return Status::InvalidArgument("pretraining corpus is empty");
  }
  const int64_t v = tokenizer.vocab().size();
  const int64_t d = config.dim;

  // Accumulate windowed co-occurrence counts with 1/distance weighting.
  // Key packs (i, j) into one 64-bit integer.
  std::unordered_map<uint64_t, float> cooc;
  for (const std::string& text : corpus) {
    const std::vector<int64_t> ids = tokenizer.Encode(text);
    const int64_t n = static_cast<int64_t>(ids.size());
    for (int64_t i = 0; i < n; ++i) {
      if (ids[i] == kUnkId) continue;
      const int64_t lo = std::max<int64_t>(0, i - config.window);
      for (int64_t j = lo; j < i; ++j) {
        if (ids[j] == kUnkId) continue;
        const float w = 1.0f / static_cast<float>(i - j);
        const uint64_t key = (static_cast<uint64_t>(ids[i]) << 32) |
                             static_cast<uint64_t>(ids[j]);
        cooc[key] += w;
        const uint64_t rkey = (static_cast<uint64_t>(ids[j]) << 32) |
                              static_cast<uint64_t>(ids[i]);
        cooc[rkey] += w;
      }
    }
  }
  if (cooc.empty()) {
    return Status::InvalidArgument("corpus produced no co-occurrences");
  }

  // One entry per pair, in key order, the deterministic base order. x
  // never changes during training, so each pair's GloVe weight and log(x)
  // are computed once here, and the epochs shuffle the pairs instead of
  // looking every key up again; Shuffle's draws depend only on the size.
  // The map is released before training.
  struct Pair {
    uint64_t key;
    float weight;
    float log_x;
  };
  std::vector<Pair> pairs;
  pairs.reserve(cooc.size());
  for (const auto& [key, x] : cooc) {
    const float weight =
        x >= config.x_max ? 1.0f : std::pow(x / config.x_max, config.alpha);
    pairs.push_back(Pair{key, weight, std::log(x)});
  }
  std::unordered_map<uint64_t, float>().swap(cooc);
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& l, const Pair& r) { return l.key < r.key; });

  Rng rng(config.seed);
  const float init = 0.5f / static_cast<float>(d);
  Tensor w = Tensor::RandomUniform({v, d}, init, &rng);
  Tensor c = Tensor::RandomUniform({v, d}, init, &rng);
  std::vector<float> bw(static_cast<size_t>(v), 0.0f);
  std::vector<float> bc(static_cast<size_t>(v), 0.0f);
  // AdaGrad accumulators.
  Tensor gw({v, d}, 1.0f);
  Tensor gc({v, d}, 1.0f);
  std::vector<float> gbw(static_cast<size_t>(v), 1.0f);
  std::vector<float> gbc(static_cast<size_t>(v), 1.0f);

  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&pairs);
    for (const auto& [key, weight, log_x] : pairs) {
      const int64_t i = static_cast<int64_t>(key >> 32);
      const int64_t j = static_cast<int64_t>(key & 0xffffffffULL);
      tmath::kernels::GloveStep(
          {w.data() + i * d, c.data() + j * d, gw.data() + i * d,
           gc.data() + j * d, &bw[static_cast<size_t>(i)],
           &bc[static_cast<size_t>(j)], &gbw[static_cast<size_t>(i)],
           &gbc[static_cast<size_t>(j)]},
          d, weight, log_x, config.lr);
    }
  }

  // Final embedding: w + c (standard GloVe practice).
  Tensor out({v, d});
  for (int64_t i = 0; i < v * d; ++i) out[i] = w[i] + c[i];
  return out;
}

}  // namespace sdea::text
