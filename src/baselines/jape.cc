#include "baselines/jape.h"

#include <algorithm>

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
  const int64_t n1 = input.kg1.num_entities();
  const int64_t n2 = input.kg2.num_entities();
  const int64_t relations = std::max<int64_t>(
      1, input.kg1.num_relations() + input.kg2.num_relations());

  // Structure channel: seed-sharing TransE (JAPE-Stru).
  const std::vector<int64_t> merge = SeedMerge(n1, n2, input.seeds.train);
  TransE model(n1 + n2, relations, config_.transe);
  model.Train(UnionTriples(input.kg1, input.kg2), merge);
  const auto [struct1, struct2] =
      SplitUnion(model.raw_entities(), n1, merge);

  // Attribute channel: attribute-name correlation embeddings, the mean
  // attribute-name vector per entity, L2-normalized.
  const std::vector<std::string> sentences1 =
      AttributeNameSentences(input.kg1);
  const std::vector<std::string> sentences2 =
      AttributeNameSentences(input.kg2);
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
      MeanTokenVectors(sentences1, tokenizer, *table, &attr1);
      MeanTokenVectors(sentences2, tokenizer, *table, &attr2);
      tmath::L2NormalizeRowsInPlace(&attr1);
      tmath::L2NormalizeRowsInPlace(&attr2);
    }
  }

  emb1_ = FuseChannels(struct1, attr1, config_.weight_structure,
                       config_.weight_attributes);
  emb2_ = FuseChannels(struct2, attr2, config_.weight_structure,
                       config_.weight_attributes);
  return Status::Ok();
}

}  // namespace sdea::baselines
