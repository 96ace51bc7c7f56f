#include "baselines/rsn4ea.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "baselines/union_graph.h"
#include "nn/optimizer.h"

namespace sdea::baselines {
namespace {

// One sampled walk: alternating entity / relation ids in the joint
// vocabulary (entities first, relations after).
using Walk = std::vector<int64_t>;

struct JointGraph {
  int64_t num_entities = 0;   // Union, after seed merging.
  int64_t num_relations = 0;  // KG1 relations then KG2 relations.
  // adjacency[e] = (relation vocab id, merged neighbor entity id).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> adjacency;
};

JointGraph BuildJointGraph(const AlignInput& input,
                           const std::vector<int64_t>& merge) {
  JointGraph g;
  g.num_entities = static_cast<int64_t>(merge.size());
  g.num_relations = input.kg1.num_relations() + input.kg2.num_relations();
  g.adjacency.resize(merge.size());
  auto resolve = [&](int64_t raw) { return merge[static_cast<size_t>(raw)]; };
  auto add = [&](int64_t h, int64_t r, int64_t t) {
    g.adjacency[static_cast<size_t>(h)].emplace_back(r, t);
    g.adjacency[static_cast<size_t>(t)].emplace_back(r, h);
  };
  for (const kg::RelationalTriple& t : UnionTriples(input.kg1, input.kg2)) {
    add(resolve(t.head), t.relation, resolve(t.tail));
  }
  return g;
}

}  // namespace

Status Rsn4Ea::Fit(const AlignInput& input) {
  const int64_t n1 = input.kg1.num_entities();
  const std::vector<int64_t> merge =
      SeedMerge(n1, input.kg2.num_entities(), input.seeds.train);
  const JointGraph graph = BuildJointGraph(input, merge);
  const int64_t vocab = graph.num_entities + graph.num_relations;
  const int64_t d = config_.dim;

  Rng rng(config_.seed);
  // Joint embedding table: entity ids 0..E-1, relation ids E..E+R-1.
  Parameter table("rsn.table",
                  Tensor::RandomNormal({vocab, d},
                                       1.0f / std::sqrt(
                                                  static_cast<float>(d)),
                                       &rng));
  nn::GruCell cell("rsn.gru", d, d, &rng);
  // Skip-connection projections: h' = W1 h + W2 emb(subject entity).
  const float lim = std::sqrt(3.0f / static_cast<float>(d));
  Parameter w1("rsn.w1", Tensor::RandomUniform({d, d}, lim, &rng));
  Parameter w2("rsn.w2", Tensor::RandomUniform({d, d}, lim, &rng));

  std::vector<Parameter*> params = {&table, &w1, &w2};
  for (Parameter* p : cell.Parameters()) params.push_back(p);
  nn::Adam optimizer(params, config_.lr);

  // Walk sampler: start at an entity with edges, alternate relation/entity.
  auto sample_walk = [&](int64_t start) -> Walk {
    Walk walk{start};
    int64_t cur = start;
    while (static_cast<int64_t>(walk.size()) < config_.walk_length) {
      const auto& edges = graph.adjacency[static_cast<size_t>(cur)];
      if (edges.empty()) break;
      const auto& [rel, nxt] = edges[rng.UniformInt(edges.size())];
      walk.push_back(graph.num_entities + rel);
      walk.push_back(nxt);
      cur = nxt;
    }
    return walk;
  };

  std::vector<int64_t> starts;
  for (int64_t e = 0; e < graph.num_entities; ++e) {
    if (merge[static_cast<size_t>(e)] != e) continue;  // Merged-away slot.
    if (graph.adjacency[static_cast<size_t>(e)].empty()) continue;
    for (int64_t k = 0; k < config_.walks_per_entity; ++k) {
      starts.push_back(e);
    }
  }
  if (starts.empty()) return Status::InvalidArgument("no relational edges");

  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&starts);
    for (size_t batch_start = 0; batch_start < starts.size();
         batch_start += static_cast<size_t>(config_.batch_paths)) {
      const size_t batch_end =
          std::min(starts.size(),
                   batch_start + static_cast<size_t>(config_.batch_paths));
      Graph g;
      NodeId tbl = g.Param(&table);
      NodeId loss = -1;
      int64_t terms = 0;
      for (size_t p = batch_start; p < batch_end; ++p) {
        const Walk walk = sample_walk(starts[p]);
        if (walk.size() < 3) continue;
        NodeId inputs = g.Gather(tbl, walk);  // [L, d]
        NodeId h = g.Input(Tensor({1, d}));
        for (size_t t = 0; t + 1 < walk.size(); ++t) {
          NodeId xt = g.SliceRows(inputs, static_cast<int64_t>(t),
                                  static_cast<int64_t>(t) + 1);
          h = cell.Step(&g, xt, h);
          NodeId context = h;
          const bool target_is_entity = ((t + 1) % 2 == 0);
          if (target_is_entity && t >= 1) {
            // Skip connection from the subject entity two steps back.
            NodeId subject = g.SliceRows(inputs, static_cast<int64_t>(t) - 1,
                                         static_cast<int64_t>(t));
            context = g.Add(g.Matmul(h, g.Param(&w1)),
                            g.Matmul(subject, g.Param(&w2)));
          }
          // Margin ranking of the true next element vs sampled negatives
          // under the dot-product score.
          NodeId pos = g.SliceRows(inputs, static_cast<int64_t>(t) + 1,
                                   static_cast<int64_t>(t) + 2);
          NodeId pos_score =
              g.Matmul(context, g.Transpose(pos));  // [1,1]
          for (int64_t k = 0; k < config_.num_negatives; ++k) {
            const int64_t neg_id =
                target_is_entity
                    ? static_cast<int64_t>(
                          rng.UniformInt(static_cast<uint64_t>(
                              graph.num_entities)))
                    : graph.num_entities +
                          static_cast<int64_t>(rng.UniformInt(
                              static_cast<uint64_t>(graph.num_relations)));
            NodeId neg = g.Gather(tbl, {neg_id});
            NodeId neg_score = g.Matmul(context, g.Transpose(neg));
            NodeId hinge = g.Relu(
                g.AddConst(g.Sub(neg_score, pos_score), 1.0f));
            loss = (loss < 0) ? hinge : g.Add(loss, hinge);
            ++terms;
          }
        }
      }
      if (loss < 0 || terms == 0) continue;
      NodeId mean_loss = g.Scale(loss, 1.0f / static_cast<float>(terms));
      optimizer.ZeroGrad();
      g.Backward(g.SumAll(mean_loss));
      optimizer.ClipGradNorm(5.0f);
      optimizer.Step();
    }
  }

  // Per-side entity embeddings, resolving merged slots (the relation rows
  // after the union entities are not read).
  std::tie(emb1_, emb2_) = SplitUnion(table.value, n1, merge);
  return Status::Ok();
}

}  // namespace sdea::baselines
