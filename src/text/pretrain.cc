#include "text/pretrain.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "base/rng.h"

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

  // (key, x) pairs in key order, the deterministic base order. x never
  // changes during training, so the epochs shuffle the pairs instead of
  // looking every key up again; Shuffle's draws depend only on the size.
  // The map is released before training.
  std::vector<std::pair<uint64_t, float>> pairs(cooc.begin(), cooc.end());
  std::unordered_map<uint64_t, float>().swap(cooc);
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });

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
    for (const auto& [key, x] : pairs) {
      const int64_t i = static_cast<int64_t>(key >> 32);
      const int64_t j = static_cast<int64_t>(key & 0xffffffffULL);
      const float weight =
          x >= config.x_max
              ? 1.0f
              : std::pow(x / config.x_max, config.alpha);
      float dot = 0.0f;
      const float* wi = w.data() + i * d;
      const float* cj = c.data() + j * d;
      for (int64_t k = 0; k < d; ++k) dot += wi[k] * cj[k];
      const float err =
          dot + bw[static_cast<size_t>(i)] + bc[static_cast<size_t>(j)] -
          std::log(x);
      const float coeff = weight * err;
      float* wi_m = w.data() + i * d;
      float* cj_m = c.data() + j * d;
      float* gwi = gw.data() + i * d;
      float* gcj = gc.data() + j * d;
      for (int64_t k = 0; k < d; ++k) {
        const float grad_w = coeff * cj_m[k];
        const float grad_c = coeff * wi_m[k];
        gwi[k] += grad_w * grad_w;
        gcj[k] += grad_c * grad_c;
        wi_m[k] -= config.lr * grad_w / std::sqrt(gwi[k]);
        cj_m[k] -= config.lr * grad_c / std::sqrt(gcj[k]);
      }
      gbw[static_cast<size_t>(i)] += coeff * coeff;
      gbc[static_cast<size_t>(j)] += coeff * coeff;
      bw[static_cast<size_t>(i)] -=
          config.lr * coeff / std::sqrt(gbw[static_cast<size_t>(i)]);
      bc[static_cast<size_t>(j)] -=
          config.lr * coeff / std::sqrt(gbc[static_cast<size_t>(j)]);
    }
  }

  // Final embedding: w + c (standard GloVe practice).
  Tensor out({v, d});
  for (int64_t i = 0; i < v * d; ++i) out[i] = w[i] + c[i];
  return out;
}

}  // namespace sdea::text
