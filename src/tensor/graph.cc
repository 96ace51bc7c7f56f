#include "tensor/graph.h"

#include <algorithm>
#include <cmath>

namespace sdea {

NodeId Graph::AddNode(Tensor value, bool requires_grad,
                      std::function<void(Graph*)> backward) {
  nodes_.push_back(Node{std::move(value), Tensor(), requires_grad,
                        requires_grad ? std::move(backward) : nullptr});
  return static_cast<NodeId>(nodes_.size() - 1);
}

Graph::Node& Graph::node(NodeId id) {
  SDEA_CHECK(id >= 0 && id < NumNodes());
  return nodes_[static_cast<size_t>(id)];
}

const Graph::Node& Graph::node(NodeId id) const {
  SDEA_CHECK(id >= 0 && id < NumNodes());
  return nodes_[static_cast<size_t>(id)];
}

Tensor& Graph::MutableGrad(NodeId id) {
  Node& n = node(id);
  const Tensor& value = Value(id);
  if (n.grad.empty() && value.size() > 0) n.grad = Tensor(value.shape());
  return n.grad;
}

const Tensor& Graph::Value(NodeId id) const {
  const Node& n = node(id);
  return n.param != nullptr ? *n.param : n.value;
}

const Tensor& Graph::Grad(NodeId id) const { return node(id).grad; }

void Graph::Backward(NodeId loss) {
  SDEA_CHECK_EQ(Value(loss).size(), 1);
  MutableGrad(loss).Fill(1.0f);
  for (NodeId id = loss; id >= 0; --id) {
    Node& n = node(id);
    if (!n.requires_grad || n.backward == nullptr) continue;
    if (n.grad.empty()) continue;  // No gradient reached this node.
    n.backward(this);
  }
}

NodeId Graph::Input(Tensor value) {
  return AddNode(std::move(value), /*requires_grad=*/false, nullptr);
}

NodeId Graph::Param(Parameter* p) {
  SDEA_CHECK(p != nullptr);
  NodeId id = static_cast<NodeId>(nodes_.size());
  AddNode(Tensor(), /*requires_grad=*/true, [id, p](Graph* g) {
    tmath::AxpyInto(g->node(id).grad, 1.0f, &p->grad);
  });
  nodes_.back().param = &p->value;
  return id;
}

NodeId Graph::Matmul(NodeId a, NodeId b) {
  Tensor out = tmath::Matmul(Value(a), Value(b));
  const bool rg = RequiresGrad(a) || RequiresGrad(b);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), rg, [id, a, b](Graph* g) {
    const Tensor& dc = g->node(id).grad;
    if (g->RequiresGrad(a)) {
      // dA = dC @ B^T
      Tensor da = tmath::MatmulTransposeB(dc, g->Value(b));
      tmath::AxpyInto(da, 1.0f, &g->MutableGrad(a));
    }
    if (g->RequiresGrad(b)) {
      // dB = A^T @ dC
      Tensor db = tmath::MatmulTransposeA(g->Value(a), dc);
      tmath::AxpyInto(db, 1.0f, &g->MutableGrad(b));
    }
  });
}

NodeId Graph::Transpose(NodeId a) {
  Tensor out = tmath::Transpose(Value(a));
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a](Graph* g) {
    Tensor da = tmath::Transpose(g->node(id).grad);
    tmath::AxpyInto(da, 1.0f, &g->MutableGrad(a));
  });
}

NodeId Graph::SparseMatmul(const CsrMatrix* adj, NodeId x) {
  SDEA_CHECK(adj != nullptr);
  Tensor out = adj->Apply(Value(x));
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(x), [id, adj, x](Graph* g) {
    Tensor dx = adj->ApplyTranspose(g->node(id).grad);
    tmath::AxpyInto(dx, 1.0f, &g->MutableGrad(x));
  });
}

NodeId Graph::Add(NodeId a, NodeId b) {
  Tensor out = tmath::Add(Value(a), Value(b));
  const bool rg = RequiresGrad(a) || RequiresGrad(b);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), rg, [id, a, b](Graph* g) {
    const Tensor& dc = g->node(id).grad;
    if (g->RequiresGrad(a)) tmath::AxpyInto(dc, 1.0f, &g->MutableGrad(a));
    if (g->RequiresGrad(b)) tmath::AxpyInto(dc, 1.0f, &g->MutableGrad(b));
  });
}

NodeId Graph::Sub(NodeId a, NodeId b) {
  Tensor out = tmath::Sub(Value(a), Value(b));
  const bool rg = RequiresGrad(a) || RequiresGrad(b);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), rg, [id, a, b](Graph* g) {
    const Tensor& dc = g->node(id).grad;
    if (g->RequiresGrad(a)) tmath::AxpyInto(dc, 1.0f, &g->MutableGrad(a));
    if (g->RequiresGrad(b)) tmath::AxpyInto(dc, -1.0f, &g->MutableGrad(b));
  });
}

NodeId Graph::Mul(NodeId a, NodeId b) {
  Tensor out = tmath::Mul(Value(a), Value(b));
  const bool rg = RequiresGrad(a) || RequiresGrad(b);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), rg, [id, a, b](Graph* g) {
    const Tensor& dc = g->node(id).grad;
    if (g->RequiresGrad(a)) {
      Tensor da = tmath::Mul(dc, g->Value(b));
      tmath::AxpyInto(da, 1.0f, &g->MutableGrad(a));
    }
    if (g->RequiresGrad(b)) {
      Tensor db = tmath::Mul(dc, g->Value(a));
      tmath::AxpyInto(db, 1.0f, &g->MutableGrad(b));
    }
  });
}

NodeId Graph::Scale(NodeId a, float s) {
  Tensor out = tmath::Scale(Value(a), s);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a, s](Graph* g) {
    tmath::AxpyInto(g->node(id).grad, s, &g->MutableGrad(a));
  });
}

NodeId Graph::AddConst(NodeId a, float c) {
  Tensor out = tmath::AddConst(Value(a), c);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a](Graph* g) {
    tmath::AxpyInto(g->node(id).grad, 1.0f, &g->MutableGrad(a));
  });
}

NodeId Graph::Sigmoid(NodeId a) {
  Tensor out = Value(a);
  tmath::SigmoidInPlace(out.data(), out.size());
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a](Graph* g) {
    const Tensor& y = g->Value(id);
    const Tensor& dy = g->node(id).grad;
    Tensor& da = g->MutableGrad(a);
    for (int64_t i = 0; i < y.size(); ++i) {
      da[i] += dy[i] * y[i] * (1.0f - y[i]);
    }
  });
}

NodeId Graph::Tanh(NodeId a) {
  Tensor out = Value(a);
  tmath::TanhInPlace(out.data(), out.size());
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a](Graph* g) {
    const Tensor& y = g->Value(id);
    const Tensor& dy = g->node(id).grad;
    Tensor& da = g->MutableGrad(a);
    for (int64_t i = 0; i < y.size(); ++i) {
      da[i] += dy[i] * (1.0f - y[i] * y[i]);
    }
  });
}

NodeId Graph::Relu(NodeId a) {
  Tensor out = Value(a);
  tmath::ReluInPlace(out.data(), out.size());
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a](Graph* g) {
    const Tensor& x = g->Value(a);
    const Tensor& dy = g->node(id).grad;
    Tensor& da = g->MutableGrad(a);
    for (int64_t i = 0; i < x.size(); ++i) {
      if (x[i] > 0.0f) da[i] += dy[i];
    }
  });
}

NodeId Graph::AddRowBroadcast(NodeId a, NodeId bias) {
  Tensor out = tmath::AddRowBroadcast(Value(a), Value(bias));
  const bool rg = RequiresGrad(a) || RequiresGrad(bias);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), rg, [id, a, bias](Graph* g) {
    const Tensor& dc = g->node(id).grad;
    const int64_t rows = dc.dim(0), cols = dc.dim(1);
    if (g->RequiresGrad(a)) tmath::AxpyInto(dc, 1.0f, &g->MutableGrad(a));
    if (g->RequiresGrad(bias)) {
      Tensor& db = g->MutableGrad(bias);
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) db[j] += dc[i * cols + j];
      }
    }
  });
}

namespace {

// Views a rank-1 tensor as [1, n] for concat/slice purposes.
void ShapeAs2d(const Tensor& t, int64_t* rows, int64_t* cols) {
  if (t.rank() == 1) {
    *rows = 1;
    *cols = t.dim(0);
  } else {
    SDEA_CHECK_EQ(t.rank(), 2);
    *rows = t.dim(0);
    *cols = t.dim(1);
  }
}

}  // namespace

NodeId Graph::ConcatCols(NodeId a, NodeId b) {
  int64_t ra, ca, rb, cb;
  ShapeAs2d(Value(a), &ra, &ca);
  ShapeAs2d(Value(b), &rb, &cb);
  SDEA_CHECK_EQ(ra, rb);
  Tensor out({ra, ca + cb});
  const Tensor& av = Value(a);
  const Tensor& bv = Value(b);
  for (int64_t i = 0; i < ra; ++i) {
    for (int64_t j = 0; j < ca; ++j) out[i * (ca + cb) + j] = av[i * ca + j];
    for (int64_t j = 0; j < cb; ++j) {
      out[i * (ca + cb) + ca + j] = bv[i * cb + j];
    }
  }
  const bool rg = RequiresGrad(a) || RequiresGrad(b);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), rg, [id, a, b, ra, ca, cb](Graph* g) {
    const Tensor& dc = g->node(id).grad;
    if (g->RequiresGrad(a)) {
      Tensor& da = g->MutableGrad(a);
      for (int64_t i = 0; i < ra; ++i) {
        for (int64_t j = 0; j < ca; ++j) {
          da[i * ca + j] += dc[i * (ca + cb) + j];
        }
      }
    }
    if (g->RequiresGrad(b)) {
      Tensor& db = g->MutableGrad(b);
      for (int64_t i = 0; i < ra; ++i) {
        for (int64_t j = 0; j < cb; ++j) {
          db[i * cb + j] += dc[i * (ca + cb) + ca + j];
        }
      }
    }
  });
}

NodeId Graph::StackRows(const std::vector<NodeId>& parts) {
  SDEA_CHECK(!parts.empty());
  int64_t rows = 0, cols = 0;
  std::vector<int64_t> offsets;  // First element of each part in the output.
  offsets.reserve(parts.size());
  bool rg = false;
  for (size_t i = 0; i < parts.size(); ++i) {
    int64_t r, c;
    ShapeAs2d(Value(parts[i]), &r, &c);
    if (i == 0) cols = c;
    SDEA_CHECK_EQ(c, cols);
    offsets.push_back(rows * cols);
    rows += r;
    rg = rg || RequiresGrad(parts[i]);
  }
  Tensor out({rows, cols});
  for (size_t i = 0; i < parts.size(); ++i) {
    const Tensor& v = Value(parts[i]);
    std::copy(v.data(), v.data() + v.size(), out.data() + offsets[i]);
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), rg, [id, parts, offsets](Graph* g) {
    const Tensor& dc = g->node(id).grad;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!g->RequiresGrad(parts[i])) continue;
      Tensor& dp = g->MutableGrad(parts[i]);
      const float* slice = dc.data() + offsets[i];
      for (int64_t j = 0; j < dp.size(); ++j) dp[j] += slice[j];
    }
  });
}

NodeId Graph::SliceCols(NodeId a, int64_t begin, int64_t end) {
  const Tensor& av = Value(a);
  SDEA_CHECK_EQ(av.rank(), 2);
  const int64_t rows = av.dim(0), cols = av.dim(1);
  SDEA_CHECK(begin >= 0 && begin < end && end <= cols);
  const int64_t w = end - begin;
  Tensor out({rows, w});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < w; ++j) out[i * w + j] = av[i * cols + begin + j];
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a),
                 [id, a, begin, w, rows, cols](Graph* g) {
                   const Tensor& dc = g->node(id).grad;
                   Tensor& da = g->MutableGrad(a);
                   for (int64_t i = 0; i < rows; ++i) {
                     for (int64_t j = 0; j < w; ++j) {
                       da[i * cols + begin + j] += dc[i * w + j];
                     }
                   }
                 });
}

NodeId Graph::SliceRows(NodeId a, int64_t begin, int64_t end) {
  const Tensor& av = Value(a);
  SDEA_CHECK_EQ(av.rank(), 2);
  const int64_t rows = av.dim(0), cols = av.dim(1);
  SDEA_CHECK(begin >= 0 && begin < end && end <= rows);
  const int64_t h = end - begin;
  Tensor out({h, cols});
  std::copy(av.data() + begin * cols, av.data() + end * cols, out.data());
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a),
                 [id, a, begin, h, cols](Graph* g) {
                   const Tensor& dc = g->node(id).grad;
                   Tensor& da = g->MutableGrad(a);
                   for (int64_t i = 0; i < h * cols; ++i) {
                     da[begin * cols + i] += dc[i];
                   }
                 });
}

NodeId Graph::SumAll(NodeId a) {
  Tensor out({1});
  out[0] = Value(a).Sum();
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a](Graph* g) {
    const float d = g->node(id).grad[0];
    Tensor& da = g->MutableGrad(a);
    for (int64_t i = 0; i < da.size(); ++i) da[i] += d;
  });
}

NodeId Graph::MeanAll(NodeId a) {
  const int64_t n = Value(a).size();
  SDEA_CHECK_GT(n, 0);
  Tensor out({1});
  out[0] = Value(a).Sum() / static_cast<float>(n);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a, n](Graph* g) {
    const float d = g->node(id).grad[0] / static_cast<float>(n);
    Tensor& da = g->MutableGrad(a);
    for (int64_t i = 0; i < da.size(); ++i) da[i] += d;
  });
}

NodeId Graph::MeanRows(NodeId a) {
  const Tensor& av = Value(a);
  SDEA_CHECK_EQ(av.rank(), 2);
  const int64_t rows = av.dim(0), cols = av.dim(1);
  SDEA_CHECK_GT(rows, 0);
  Tensor out({1, cols});
  tmath::MeanRows(av.data(), rows, cols, out.data());
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a),
                 [id, a, rows, cols](Graph* g) {
                   const Tensor& dc = g->node(id).grad;
                   Tensor& da = g->MutableGrad(a);
                   const float inv = 1.0f / static_cast<float>(rows);
                   for (int64_t i = 0; i < rows; ++i) {
                     for (int64_t j = 0; j < cols; ++j) {
                       da[i * cols + j] += dc[j] * inv;
                     }
                   }
                 });
}

NodeId Graph::SoftmaxRows(NodeId a) {
  Tensor out = tmath::SoftmaxRows(Value(a));
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a), [id, a](Graph* g) {
    const Tensor& y = g->Value(id);
    const Tensor& dy = g->node(id).grad;
    Tensor& da = g->MutableGrad(a);
    const int64_t rows = y.dim(0), cols = y.dim(1);
    for (int64_t i = 0; i < rows; ++i) {
      double dot = 0.0;
      for (int64_t j = 0; j < cols; ++j) {
        dot += static_cast<double>(dy[i * cols + j]) * y[i * cols + j];
      }
      for (int64_t j = 0; j < cols; ++j) {
        da[i * cols + j] += y[i * cols + j] *
                            (dy[i * cols + j] - static_cast<float>(dot));
      }
    }
  });
}

NodeId Graph::LayerNormRows(NodeId a, NodeId gain, NodeId bias, float eps) {
  const Tensor& x = Value(a);
  const Tensor& gv = Value(gain);
  const Tensor& bv = Value(bias);
  SDEA_CHECK_EQ(x.rank(), 2);
  const int64_t rows = x.dim(0), cols = x.dim(1);
  SDEA_CHECK_EQ(gv.size(), cols);
  SDEA_CHECK_EQ(bv.size(), cols);
  Tensor out({rows, cols});
  // Saved per-row statistics for the backward pass.
  std::vector<float> mean(static_cast<size_t>(rows));
  std::vector<float> inv_std(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    double m = 0.0;
    for (int64_t j = 0; j < cols; ++j) m += x[i * cols + j];
    m /= static_cast<double>(cols);
    double var = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const double d = x[i * cols + j] - m;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const double is = 1.0 / std::sqrt(var + eps);
    mean[static_cast<size_t>(i)] = static_cast<float>(m);
    inv_std[static_cast<size_t>(i)] = static_cast<float>(is);
    for (int64_t j = 0; j < cols; ++j) {
      const float xn = static_cast<float>((x[i * cols + j] - m) * is);
      out[i * cols + j] = xn * gv[j] + bv[j];
    }
  }
  const bool rg = RequiresGrad(a) || RequiresGrad(gain) || RequiresGrad(bias);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(
      std::move(out), rg,
      [id, a, gain, bias, rows, cols, mean = std::move(mean),
       inv_std = std::move(inv_std)](Graph* g) {
        const Tensor& x2 = g->Value(a);
        const Tensor& gv2 = g->Value(gain);
        const Tensor& dy = g->node(id).grad;
        for (int64_t i = 0; i < rows; ++i) {
          const float m = mean[static_cast<size_t>(i)];
          const float is = inv_std[static_cast<size_t>(i)];
          if (g->RequiresGrad(gain) || g->RequiresGrad(bias)) {
            for (int64_t j = 0; j < cols; ++j) {
              const float xn = (x2[i * cols + j] - m) * is;
              if (g->RequiresGrad(gain)) {
                g->MutableGrad(gain)[j] += dy[i * cols + j] * xn;
              }
              if (g->RequiresGrad(bias)) {
                g->MutableGrad(bias)[j] += dy[i * cols + j];
              }
            }
          }
          if (g->RequiresGrad(a)) {
            // d xn_j = dy_j * gain_j; standard layernorm input gradient.
            double sum_dxn = 0.0, sum_dxn_xn = 0.0;
            for (int64_t j = 0; j < cols; ++j) {
              const float xn = (x2[i * cols + j] - m) * is;
              const float dxn = dy[i * cols + j] * gv2[j];
              sum_dxn += dxn;
              sum_dxn_xn += static_cast<double>(dxn) * xn;
            }
            Tensor& da = g->MutableGrad(a);
            const double inv_n = 1.0 / static_cast<double>(cols);
            for (int64_t j = 0; j < cols; ++j) {
              const float xn = (x2[i * cols + j] - m) * is;
              const float dxn = dy[i * cols + j] * gv2[j];
              da[i * cols + j] += static_cast<float>(
                  is * (dxn - inv_n * sum_dxn - inv_n * sum_dxn_xn * xn));
            }
          }
        }
      });
}

NodeId Graph::L2NormalizeRows(NodeId a, float eps) {
  const Tensor& x = Value(a);
  SDEA_CHECK_EQ(x.rank(), 2);
  const int64_t rows = x.dim(0), cols = x.dim(1);
  Tensor out({rows, cols});
  std::vector<float> inv_norm(static_cast<size_t>(rows), 1.0f);
  for (int64_t i = 0; i < rows; ++i) {
    inv_norm[static_cast<size_t>(i)] = tmath::L2NormalizeRow(
        x.data() + i * cols, cols, eps, out.data() + i * cols);
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(
      std::move(out), RequiresGrad(a),
      [id, a, rows, cols, inv_norm = std::move(inv_norm)](Graph* g) {
        const Tensor& y = g->Value(id);
        const Tensor& dy = g->node(id).grad;
        Tensor& da = g->MutableGrad(a);
        for (int64_t i = 0; i < rows; ++i) {
          const float inv = inv_norm[static_cast<size_t>(i)];
          double dot = 0.0;
          for (int64_t j = 0; j < cols; ++j) {
            dot += static_cast<double>(dy[i * cols + j]) * y[i * cols + j];
          }
          for (int64_t j = 0; j < cols; ++j) {
            da[i * cols + j] +=
                inv * (dy[i * cols + j] -
                       static_cast<float>(dot) * y[i * cols + j]);
          }
        }
      });
}

NodeId Graph::Gather(NodeId table, std::vector<int64_t> indices) {
  const Tensor& tv = Value(table);
  SDEA_CHECK_EQ(tv.rank(), 2);
  const int64_t v = tv.dim(0), d = tv.dim(1);
  const int64_t n = static_cast<int64_t>(indices.size());
  Tensor out({n, d});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = indices[static_cast<size_t>(i)];
    SDEA_CHECK(row >= 0 && row < v);
    std::copy(tv.data() + row * d, tv.data() + (row + 1) * d,
              out.data() + i * d);
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(table),
                 [id, table, d, indices = std::move(indices)](Graph* g) {
                   const Tensor& dc = g->node(id).grad;
                   Tensor& dt = g->MutableGrad(table);
                   for (size_t i = 0; i < indices.size(); ++i) {
                     const int64_t row = indices[i];
                     for (int64_t j = 0; j < d; ++j) {
                       dt[row * d + j] +=
                           dc[static_cast<int64_t>(i) * d + j];
                     }
                   }
                 });
}

NodeId Graph::Dropout(NodeId a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) {
    // Identity pass-through node keeps graph structure uniform.
    return Scale(a, 1.0f);
  }
  SDEA_CHECK(rng != nullptr);
  SDEA_CHECK_LT(p, 1.0f);
  const Tensor& x = Value(a);
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  Tensor mask(x.shape());
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng->Bernoulli(keep) ? scale : 0.0f;
  }
  Tensor out = tmath::Mul(x, mask);
  NodeId id = static_cast<NodeId>(nodes_.size());
  return AddNode(std::move(out), RequiresGrad(a),
                 [id, a, mask = std::move(mask)](Graph* g) {
                   Tensor da = tmath::Mul(g->node(id).grad, mask);
                   tmath::AxpyInto(da, 1.0f, &g->MutableGrad(a));
                 });
}

}  // namespace sdea
