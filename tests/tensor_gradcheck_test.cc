// Numerical gradient checks for every differentiable op, plus composed
// networks. These are the load-bearing correctness tests of the autograd
// engine: each op's analytic backward is compared against central finite
// differences.
#include "tensor/gradcheck.h"

#include <gtest/gtest.h>

#include <functional>

#include "nn/loss.h"

namespace sdea {
namespace {

// Builds a scalar loss from `body`, which maps parameter nodes to an
// output node; the loss is SumAll(output) unless the body already returns
// a scalar.
struct OpCheck {
  std::vector<Parameter*> params;
  std::function<NodeId(Graph*)> body;

  float Run(float eps = 1e-2f) {
    auto loss_value = [&]() {
      Graph g;
      NodeId out = body(&g);
      NodeId loss = (g.Value(out).size() == 1) ? out : g.SumAll(out);
      return g.Value(loss)[0];
    };
    auto backward = [&]() {
      Graph g;
      NodeId out = body(&g);
      NodeId loss = (g.Value(out).size() == 1) ? out : g.SumAll(out);
      g.Backward(loss);
    };
    return MaxGradCheckError(loss_value, backward, params, eps,
                             /*max_coords_per_param=*/24);
  }
};

Parameter MakeParam(const std::string& name, std::vector<int64_t> shape,
                    uint64_t seed) {
  Rng rng(seed);
  return Parameter(name, Tensor::RandomNormal(std::move(shape), 0.7f, &rng));
}

constexpr float kTol = 5e-2f;  // float32 + eps=1e-2 central differences.

TEST(GradCheckTest, Matmul) {
  Parameter a = MakeParam("a", {3, 4}, 1);
  Parameter b = MakeParam("b", {4, 2}, 2);
  OpCheck c{{&a, &b}, [&](Graph* g) {
              return g->Matmul(g->Param(&a), g->Param(&b));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, Transpose) {
  Parameter a = MakeParam("a", {3, 4}, 3);
  Parameter b = MakeParam("b", {3, 2}, 4);
  OpCheck c{{&a, &b}, [&](Graph* g) {
              return g->Matmul(g->Transpose(g->Param(&a)), g->Param(&b));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, AddSubMul) {
  Parameter a = MakeParam("a", {2, 3}, 5);
  Parameter b = MakeParam("b", {2, 3}, 6);
  OpCheck c{{&a, &b}, [&](Graph* g) {
              NodeId x = g->Param(&a);
              NodeId y = g->Param(&b);
              return g->Mul(g->Add(x, y), g->Sub(x, y));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, ScaleAddConst) {
  Parameter a = MakeParam("a", {5}, 7);
  OpCheck c{{&a}, [&](Graph* g) {
              return g->AddConst(g->Scale(g->Param(&a), -2.5f), 3.0f);
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, Sigmoid) {
  Parameter a = MakeParam("a", {2, 4}, 8);
  OpCheck c{{&a}, [&](Graph* g) { return g->Sigmoid(g->Param(&a)); }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, Tanh) {
  Parameter a = MakeParam("a", {2, 4}, 9);
  OpCheck c{{&a}, [&](Graph* g) { return g->Tanh(g->Param(&a)); }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, AddRowBroadcast) {
  Parameter a = MakeParam("a", {3, 4}, 10);
  Parameter b = MakeParam("b", {4}, 11);
  OpCheck c{{&a, &b}, [&](Graph* g) {
              return g->AddRowBroadcast(g->Param(&a), g->Param(&b));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, ConcatAndSlice) {
  Parameter a = MakeParam("a", {2, 3}, 14);
  Parameter b = MakeParam("b", {2, 2}, 15);
  OpCheck c{{&a, &b}, [&](Graph* g) {
              NodeId cat = g->ConcatCols(g->Param(&a), g->Param(&b));
              return g->SliceCols(cat, 1, 4);
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, StackRowsAndSliceRows) {
  // Three parts: a [2,3] parameter, a constant that needs no gradient and
  // a rank-1 parameter (one row). Squaring before the slice makes each
  // row's gradient depend on its own value, so a misrouted slice fails.
  Parameter a = MakeParam("a", {2, 3}, 16);
  Parameter b = MakeParam("b", {3}, 17);
  OpCheck c{{&a, &b}, [&](Graph* g) {
              NodeId fixed = g->Input(Tensor({1, 3}, 0.5f));
              NodeId s = g->StackRows({g->Param(&a), fixed, g->Param(&b)});
              return g->SliceRows(g->Mul(s, s), 1, 4);
            }};
  EXPECT_LT(c.Run(), kTol);
  // A one-part stack passes the gradient straight through.
  OpCheck one{{&a}, [&](Graph* g) {
                NodeId s = g->StackRows({g->Param(&a)});
                return g->Mul(s, s);
              }};
  EXPECT_LT(one.Run(), kTol);
}

TEST(GradCheckTest, MeanRowsMeanAll) {
  Parameter a = MakeParam("a", {4, 3}, 18);
  OpCheck c{{&a}, [&](Graph* g) { return g->MeanRows(g->Param(&a)); }};
  EXPECT_LT(c.Run(), kTol);
  OpCheck c2{{&a}, [&](Graph* g) { return g->MeanAll(g->Param(&a)); }};
  EXPECT_LT(c2.Run(), kTol);
}

TEST(GradCheckTest, SoftmaxRows) {
  Parameter a = MakeParam("a", {3, 5}, 19);
  Parameter w = MakeParam("w", {3, 5}, 20);
  // Weighted sum so the gradient is not uniform across the row.
  OpCheck c{{&a, &w}, [&](Graph* g) {
              return g->Mul(g->SoftmaxRows(g->Param(&a)), g->Param(&w));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, LayerNormRows) {
  Parameter a = MakeParam("a", {3, 6}, 21);
  Parameter gain = MakeParam("g", {6}, 22);
  Parameter bias = MakeParam("b", {6}, 23);
  Parameter w = MakeParam("w", {3, 6}, 24);
  OpCheck c{{&a, &gain, &bias, &w}, [&](Graph* g) {
              NodeId ln = g->LayerNormRows(g->Param(&a), g->Param(&gain),
                                           g->Param(&bias));
              return g->Mul(ln, g->Param(&w));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, L2NormalizeRows) {
  Parameter a = MakeParam("a", {3, 4}, 25);
  Parameter w = MakeParam("w", {3, 4}, 26);
  OpCheck c{{&a, &w}, [&](Graph* g) {
              return g->Mul(g->L2NormalizeRows(g->Param(&a)), g->Param(&w));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, Gather) {
  Parameter t = MakeParam("t", {5, 3}, 27);
  Parameter w = MakeParam("w", {4, 3}, 28);
  OpCheck c{{&t, &w}, [&](Graph* g) {
              NodeId got = g->Gather(g->Param(&t), {4, 0, 0, 2});
              return g->Mul(got, g->Param(&w));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, SparseMatmul) {
  CsrMatrix adj = CsrMatrix::FromTriplets(
      3, 4,
      {{0, 0, 0.5f}, {0, 3, -1.0f}, {1, 1, 2.0f}, {2, 2, 1.5f}, {2, 0, 1.0f}});
  Parameter x = MakeParam("x", {4, 3}, 29);
  OpCheck c{{&x}, [&](Graph* g) {
              return g->SparseMatmul(&adj, g->Param(&x));
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, MarginRankingLoss) {
  Parameter a = MakeParam("a", {4, 5}, 30);
  Parameter p = MakeParam("p", {4, 5}, 31);
  Parameter n = MakeParam("n", {4, 5}, 32);
  OpCheck c{{&a, &p, &n}, [&](Graph* g) {
              return nn::MarginRankingLoss(g, g->Param(&a), g->Param(&p),
                                           g->Param(&n), 1.0f);
            }};
  EXPECT_LT(c.Run(), kTol);
}

TEST(GradCheckTest, ComposedMlpLikeNetwork) {
  Parameter w0 = MakeParam("w0", {4, 6}, 33);
  Parameter b0 = MakeParam("b0", {6}, 34);
  Parameter w1 = MakeParam("w1", {6, 2}, 35);
  Parameter x = MakeParam("x", {3, 4}, 36);
  OpCheck c{{&w0, &b0, &w1, &x}, [&](Graph* g) {
              NodeId h = g->Relu(g->AddRowBroadcast(
                  g->Matmul(g->Param(&x), g->Param(&w0)), g->Param(&b0)));
              return g->Matmul(h, g->Param(&w1));
            }};
  EXPECT_LT(c.Run(), 8e-2f);  // ReLU kinks inflate the numeric error.
}

}  // namespace
}  // namespace sdea
