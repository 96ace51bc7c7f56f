#include "baselines/jape.h"

#include <algorithm>

#include "base/check.h"
#include "baselines/union_graph.h"
#include "text/pretrain.h"
#include "text/tokenizer.h"

namespace sdea::baselines {
namespace {

// One "sentence" per entity: its attribute names, space-joined in row
// order. Attribute correlation (names co-occurring on the same entities)
// becomes word co-occurrence for the pre-trainer — the Skip-gram recipe of
// JAPE.
std::vector<std::string> AttributeNameSentences(const kg::KnowledgeGraph& g) {
  const kg::KgSnapshot snap = g.Snapshot();
  std::vector<std::string> out(static_cast<size_t>(snap.num_entities()));
  snap.ForEachAttribute([&](int64_t /*row*/, kg::EntityId e, kg::AttributeId a,
                            const std::string& /*value*/) {
    std::string& sentence = out[static_cast<size_t>(e)];
    if (!sentence.empty()) sentence += ' ';
    sentence += snap.attribute_name(a);
  });
  return out;
}

// Mean attribute-name embedding per entity, L2-normalized.
Tensor EntityAttributeVectors(const std::vector<std::string>& sentences,
                              const text::SubwordTokenizer& tokenizer,
                              const Tensor& table) {
  const int64_t d = table.dim(1);
  Tensor out({static_cast<int64_t>(sentences.size()), d});
  for (size_t i = 0; i < sentences.size(); ++i) {
    const auto ids = tokenizer.Encode(sentences[i]);
    if (ids.empty()) continue;
    float* row = out.data() + static_cast<int64_t>(i) * d;
    for (int64_t id : ids) {
      const float* trow = table.data() + id * d;
      for (int64_t j = 0; j < d; ++j) row[j] += trow[j];
    }
    const float inv = 1.0f / static_cast<float>(ids.size());
    for (int64_t j = 0; j < d; ++j) row[j] *= inv;
  }
  tmath::L2NormalizeRowsInPlace(&out);
  return out;
}

// Concatenates weighted, L2-normalized structure and attribute blocks.
Tensor FuseChannels(const Tensor& structure, const Tensor& attributes,
                    float w_struct, float w_attr) {
  Tensor s = structure;
  tmath::L2NormalizeRowsInPlace(&s);
  const int64_t n = s.dim(0), ds = s.dim(1), da = attributes.dim(1);
  Tensor out({n, ds + da});
  for (int64_t i = 0; i < n; ++i) {
    float* row = out.data() + i * (ds + da);
    const float* srow = s.data() + i * ds;
    for (int64_t j = 0; j < ds; ++j) row[j] = w_struct * srow[j];
    const float* arow = attributes.data() + i * da;
    for (int64_t j = 0; j < da; ++j) row[ds + j] = w_attr * arow[j];
  }
  return out;
}

}  // namespace

Status Jape::Fit(const AlignInput& input) {
  if (input.kg1 == nullptr || input.kg2 == nullptr ||
      input.seeds == nullptr) {
    return Status::InvalidArgument("Jape: null input");
  }
  const int64_t n1 = input.kg1->num_entities();
  const int64_t n2 = input.kg2->num_entities();
  const int64_t total = n1 + n2;
  const int64_t relations = std::max<int64_t>(
      1, input.kg1->num_relations() + input.kg2->num_relations());

  // Structure channel: seed-sharing TransE (JAPE-Stru).
  std::vector<int32_t> merge(static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    merge[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  for (const auto& [a, b] : input.seeds->train) {
    merge[static_cast<size_t>(n1 + b)] = a;
  }
  TransE model(total, relations, config_.transe);
  model.Train(UnionTriples(*input.kg1, *input.kg2), merge);
  const Tensor all = model.EntityEmbeddings(merge);
  Tensor struct1({n1, model.dim()});
  Tensor struct2({n2, model.dim()});
  std::copy(all.data(), all.data() + n1 * model.dim(), struct1.data());
  std::copy(all.data() + n1 * model.dim(), all.data() + total * model.dim(),
            struct2.data());

  // Attribute channel: attribute-name correlation embeddings.
  const std::vector<std::string> sentences1 =
      AttributeNameSentences(*input.kg1);
  const std::vector<std::string> sentences2 =
      AttributeNameSentences(*input.kg2);
  std::vector<std::string> corpus = sentences1;
  for (const auto& s : sentences2) corpus.push_back(s);
  text::SubwordTokenizer tokenizer;
  text::TokenizerConfig tok_cfg;
  tok_cfg.num_merges = 256;
  Tensor attr1({n1, config_.attr_dim});
  Tensor attr2({n2, config_.attr_dim});
  if (tokenizer.Train(corpus, tok_cfg).ok()) {
    text::PretrainConfig pre_cfg;
    pre_cfg.dim = config_.attr_dim;
    pre_cfg.epochs = config_.attr_pretrain_epochs;
    pre_cfg.seed = config_.seed;
    text::CooccurrencePretrainer pretrainer;
    auto table = pretrainer.Train(corpus, tokenizer, pre_cfg);
    if (table.ok()) {
      attr1 = EntityAttributeVectors(sentences1, tokenizer, *table);
      attr2 = EntityAttributeVectors(sentences2, tokenizer, *table);
    }
  }

  emb1_ = FuseChannels(struct1, attr1, config_.weight_structure,
                       config_.weight_attributes);
  emb2_ = FuseChannels(struct2, attr2, config_.weight_structure,
                       config_.weight_attributes);
  return Status::Ok();
}

}  // namespace sdea::baselines
