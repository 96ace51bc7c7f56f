#include "tensor/graph.h"

#include <gtest/gtest.h>

#include <cmath>

namespace sdea {
namespace {

TEST(GraphTest, InputHoldsValue) {
  Graph g;
  NodeId x = g.Input(Tensor({2}, {1, 2}));
  EXPECT_EQ(g.Value(x)[1], 2.0f);
}

TEST(GraphTest, ParamGradientAccumulates) {
  Parameter p("p", Tensor({2}, {3, 4}));
  Graph g;
  NodeId x = g.Param(&p);
  NodeId loss = g.SumAll(x);
  g.Backward(loss);
  EXPECT_EQ(p.grad[0], 1.0f);
  EXPECT_EQ(p.grad[1], 1.0f);
  // A second graph accumulates on top.
  Graph g2;
  NodeId x2 = g2.Param(&p);
  g2.Backward(g2.SumAll(x2));
  EXPECT_EQ(p.grad[0], 2.0f);
}

TEST(GraphTest, ParamReadsParameterInPlace) {
  Parameter p("p", Tensor({2, 2}, {0.1f, -0.7f, 1.3f, 0.45f}));
  Graph g;
  const NodeId w = g.Param(&p);
  // The leaf is the parameter's own tensor, not a copy of it.
  EXPECT_EQ(&g.Value(w), &p.value);
  p.value[0] = 0.2f;
  EXPECT_EQ(g.Value(w)[0], 0.2f);
}

TEST(GraphTest, TwoUsesOfOneParameterAccumulate) {
  // One parameter behind two leaves, one leaf read by two ops: the
  // gradient sums all three paths into p.grad. The expected bits were
  // captured when every Param leaf still copied the parameter's value.
  Parameter p("p", Tensor({2, 2}, {0.1f, -0.7f, 1.3f, 0.45f}));
  Graph g;
  const NodeId x = g.Input(Tensor({1, 2}, {0.3f, -1.1f}));
  const NodeId w1 = g.Param(&p);
  const NodeId w2 = g.Param(&p);
  const NodeId y = g.Mul(g.Tanh(g.Matmul(x, w1)), g.Matmul(x, w2));
  g.Backward(g.Add(g.SumAll(y), g.SumAll(g.Mul(w1, w1))));
  const float want[4] = {-0x1.404928p-3f, -0x1.b737dap+0f, 0x1.f410c4p+1f,
                         0x1.075ddcp+1f};
  for (int i = 0; i < 4; ++i) EXPECT_EQ(p.grad[i], want[i]) << i;
}

TEST(GraphTest, MatmulForwardBackward) {
  Parameter a("a", Tensor({1, 2}, {1, 2}));
  Parameter b("b", Tensor({2, 1}, {3, 4}));
  Graph g;
  NodeId c = g.Matmul(g.Param(&a), g.Param(&b));
  EXPECT_FLOAT_EQ(g.Value(c)[0], 11.0f);
  g.Backward(g.SumAll(c));
  EXPECT_FLOAT_EQ(a.grad[0], 3.0f);
  EXPECT_FLOAT_EQ(a.grad[1], 4.0f);
  EXPECT_FLOAT_EQ(b.grad[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad[1], 2.0f);
}

TEST(GraphTest, AddSubMulScaleValues) {
  Graph g;
  NodeId a = g.Input(Tensor({2}, {1, 2}));
  NodeId b = g.Input(Tensor({2}, {3, 5}));
  EXPECT_EQ(g.Value(g.Add(a, b))[1], 7.0f);
  EXPECT_EQ(g.Value(g.Sub(a, b))[0], -2.0f);
  EXPECT_EQ(g.Value(g.Mul(a, b))[1], 10.0f);
  EXPECT_EQ(g.Value(g.Scale(a, -2.0f))[0], -2.0f);
  EXPECT_EQ(g.Value(g.AddConst(a, 10.0f))[1], 12.0f);
}

TEST(GraphTest, ActivationValues) {
  Graph g;
  NodeId x = g.Input(Tensor({3}, {-1, 0, 1}));
  const Tensor& s = g.Value(g.Sigmoid(x));
  EXPECT_NEAR(s[1], 0.5f, 1e-6f);
  const Tensor& t = g.Value(g.Tanh(x));
  EXPECT_NEAR(t[2], std::tanh(1.0f), 1e-6f);
  const Tensor& r = g.Value(g.Relu(x));
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[2], 1.0f);
}

TEST(GraphTest, ConcatColsAndSlice) {
  Graph g;
  NodeId a = g.Input(Tensor({2, 2}, {1, 2, 3, 4}));
  NodeId b = g.Input(Tensor({2, 1}, {5, 6}));
  NodeId c = g.ConcatCols(a, b);
  EXPECT_EQ(g.Value(c).shape(), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(g.Value(c).at(1, 2), 6.0f);
  NodeId s = g.SliceCols(c, 1, 3);
  EXPECT_EQ(g.Value(s).at(0, 0), 2.0f);
  EXPECT_EQ(g.Value(s).at(1, 1), 6.0f);
}

TEST(GraphTest, StackRowsAndSliceRows) {
  // Three parts: a [1,2] parameter, a [2,2] constant that needs no
  // gradient and a rank-1 parameter that stacks as one row.
  Parameter pa("a", Tensor({1, 2}, {1, 2}));
  Parameter pc("c", Tensor({2}, {7, 8}));
  Graph g;
  NodeId a = g.Param(&pa);
  NodeId b = g.Input(Tensor({2, 2}, {3, 4, 5, 6}));
  NodeId c = g.Param(&pc);
  const int64_t before = g.NumNodes();
  NodeId s = g.StackRows({a, b, c});
  EXPECT_EQ(g.NumNodes(), before + 1);  // One node for the whole stack.
  EXPECT_EQ(g.Value(s).shape(), (std::vector<int64_t>{4, 2}));
  EXPECT_EQ(g.Value(s).at(0, 1), 2.0f);
  EXPECT_EQ(g.Value(s).at(2, 1), 6.0f);
  EXPECT_EQ(g.Value(s).at(3, 0), 7.0f);
  NodeId r = g.SliceRows(s, 2, 3);
  EXPECT_EQ(g.Value(r).at(0, 1), 6.0f);
  // Row i of the stack is weighted by i + 1, so each part's gradient
  // shows which slice it received.
  NodeId w = g.Input(Tensor({4, 2}, {1, 1, 2, 2, 3, 3, 4, 4}));
  g.Backward(g.SumAll(g.Mul(s, w)));
  EXPECT_EQ(pa.grad[0], 1.0f);
  EXPECT_EQ(pa.grad[1], 1.0f);
  EXPECT_EQ(pc.grad.shape(), (std::vector<int64_t>{2}));
  EXPECT_EQ(pc.grad[0], 4.0f);
  EXPECT_EQ(pc.grad[1], 4.0f);

  // A one-part stack is a copy whose gradient passes straight through.
  Parameter pd("d", Tensor({2, 2}, {1, 2, 3, 4}));
  Graph g2;
  NodeId one = g2.StackRows({g2.Param(&pd)});
  EXPECT_EQ(g2.Value(one).shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(g2.Value(one).at(1, 0), 3.0f);
  g2.Backward(g2.SumAll(g2.Scale(one, 3.0f)));
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(pd.grad[i], 3.0f);
}

TEST(GraphTest, ReductionValues) {
  Graph g;
  NodeId a = g.Input(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_FLOAT_EQ(g.Value(g.SumAll(a))[0], 10.0f);
  EXPECT_FLOAT_EQ(g.Value(g.MeanAll(a))[0], 2.5f);
  const Tensor& m = g.Value(g.MeanRows(a));
  EXPECT_EQ(m.shape(), (std::vector<int64_t>{1, 2}));
  EXPECT_FLOAT_EQ(m[0], 2.0f);
  EXPECT_FLOAT_EQ(m[1], 3.0f);
}

TEST(GraphTest, SoftmaxRowsValue) {
  Graph g;
  NodeId a = g.Input(Tensor({1, 2}, {0, 0}));
  const Tensor& s = g.Value(g.SoftmaxRows(a));
  EXPECT_NEAR(s[0], 0.5f, 1e-6f);
}

TEST(GraphTest, L2NormalizeRowsValue) {
  Graph g;
  NodeId a = g.Input(Tensor({1, 2}, {3, 4}));
  const Tensor& n = g.Value(g.L2NormalizeRows(a));
  EXPECT_NEAR(n[0], 0.6f, 1e-6f);
  EXPECT_NEAR(n[1], 0.8f, 1e-6f);
}

TEST(GraphTest, GatherForwardBackward) {
  Parameter table("t", Tensor({3, 2}, {1, 2, 3, 4, 5, 6}));
  Graph g;
  NodeId out = g.Gather(g.Param(&table), {2, 0, 2});
  EXPECT_EQ(g.Value(out).shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(g.Value(out).at(0, 0), 5.0f);
  EXPECT_EQ(g.Value(out).at(1, 1), 2.0f);
  g.Backward(g.SumAll(out));
  // Row 2 gathered twice -> grad 2; row 0 once; row 1 never.
  EXPECT_EQ(table.grad.at(2, 0), 2.0f);
  EXPECT_EQ(table.grad.at(0, 0), 1.0f);
  EXPECT_EQ(table.grad.at(1, 0), 0.0f);
}

TEST(GraphTest, DropoutInferenceIsIdentity) {
  Rng rng(1);
  Graph g;
  NodeId a = g.Input(Tensor({4}, {1, 2, 3, 4}));
  NodeId d = g.Dropout(a, 0.5f, /*training=*/false, &rng);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(g.Value(d)[i], g.Value(a)[i]);
}

TEST(GraphTest, DropoutTrainingZeroesAndScales) {
  Rng rng(1);
  Graph g;
  NodeId a = g.Input(Tensor({1000}, 1.0f));
  NodeId d = g.Dropout(a, 0.5f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    const float v = g.Value(d)[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
}

TEST(GraphTest, SparseMatmulMatchesDense) {
  CsrMatrix adj = CsrMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, 3.0f}});
  Parameter x("x", Tensor({3, 2}, {1, 2, 3, 4, 5, 6}));
  Graph g;
  NodeId out = g.SparseMatmul(&adj, g.Param(&x));
  // Row 0: 1*[1,2] + 2*[5,6] = [11,14]; row 1: 3*[3,4] = [9,12].
  EXPECT_FLOAT_EQ(g.Value(out).at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(g.Value(out).at(0, 1), 14.0f);
  EXPECT_FLOAT_EQ(g.Value(out).at(1, 0), 9.0f);
  g.Backward(g.SumAll(out));
  EXPECT_FLOAT_EQ(x.grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.grad.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(x.grad.at(2, 0), 2.0f);
}

TEST(GraphTest, ChainedBackwardThroughMultipleOps) {
  // loss = mean(relu(a @ b + c)); verifies multi-op plumbing end to end.
  Parameter a("a", Tensor({2, 2}, {1, -1, 2, 0.5f}));
  Parameter b("b", Tensor({2, 2}, {0.5f, 1, -1, 2}));
  Parameter c("c", Tensor({2}, {0.1f, -0.2f}));
  Graph g;
  NodeId out = g.Relu(
      g.AddRowBroadcast(g.Matmul(g.Param(&a), g.Param(&b)), g.Param(&c)));
  NodeId loss = g.MeanAll(out);
  g.Backward(loss);
  // Gradients exist and are finite.
  for (Parameter* p : {&a, &b, &c}) {
    for (int64_t i = 0; i < p->grad.size(); ++i) {
      EXPECT_TRUE(std::isfinite(p->grad[i]));
    }
  }
  EXPECT_GT(a.grad.AbsMax(), 0.0f);
}

}  // namespace
}  // namespace sdea
