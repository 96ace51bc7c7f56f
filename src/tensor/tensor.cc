#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/strings.h"
#include "base/threadpool.h"
#include "tensor/kernels.h"

namespace sdea {
namespace {

int64_t ElementCount(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    SDEA_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(ElementCount(shape_)), 0.0f) {}

Tensor::Tensor(std::vector<int64_t> shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(ElementCount(shape_)), fill) {}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  SDEA_CHECK_EQ(static_cast<int64_t>(data_.size()), ElementCount(shape_));
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  return Tensor({static_cast<int64_t>(values.size())}, values);
}

Tensor Tensor::RandomNormal(std::vector<int64_t> shape, float stddev,
                            Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::RandomUniform(std::vector<int64_t> shape, float limit,
                             Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = rng->UniformFloat(-limit, limit);
  }
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  if (i < 0) i += rank();
  SDEA_CHECK(i >= 0 && i < rank());
  return shape_[static_cast<size_t>(i)];
}

int64_t Tensor::rows() const {
  if (rank() == 1) return 1;
  SDEA_CHECK_EQ(rank(), 2);
  return shape_[0];
}

int64_t Tensor::cols() const {
  if (rank() == 1) return shape_[0];
  SDEA_CHECK_EQ(rank(), 2);
  return shape_[1];
}

void Tensor::Fill(float v) {
  for (float& x : data_) x = v;
}

Tensor Tensor::Reshaped(std::vector<int64_t> new_shape) const {
  SDEA_CHECK_EQ(ElementCount(new_shape), size());
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::Row(int64_t r) const {
  SDEA_CHECK_EQ(rank(), 2);
  SDEA_CHECK(r >= 0 && r < shape_[0]);
  const int64_t c = shape_[1];
  std::vector<float> row(data_.begin() + static_cast<size_t>(r * c),
                         data_.begin() + static_cast<size_t>((r + 1) * c));
  return Tensor({c}, std::move(row));
}

void Tensor::SetRow(int64_t r, const Tensor& src) {
  SDEA_CHECK_EQ(rank(), 2);
  SDEA_CHECK(r >= 0 && r < shape_[0]);
  SDEA_CHECK_EQ(src.size(), shape_[1]);
  std::copy(src.data(), src.data() + src.size(),
            data_.begin() + static_cast<size_t>(r * shape_[1]));
}

float Tensor::Sum() const {
  // Accumulate in double (like Norm); a float accumulator loses ~4 decimal
  // digits once the running sum dwarfs the next addend (e.g. 1M elements).
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x);
  return static_cast<float>(s);
}

float Tensor::Norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

float Tensor::AbsMax() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

std::string Tensor::DebugString() const {
  std::string out = "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out += "x";
    out += std::to_string(shape_[i]);
  }
  out += "](";
  const int64_t show = std::min<int64_t>(size(), 8);
  for (int64_t i = 0; i < show; ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.4g", data_[static_cast<size_t>(i)]);
  }
  if (size() > show) out += ", ...";
  out += ")";
  return out;
}

namespace tmath {

// The matmul variants shard output rows across the pool; each shard runs
// the row kernel the active (mode, level) selects, and the serial path is
// the single shard [0, m), so every thread count gives the same bits.

Tensor Matmul(const Tensor& a, const Tensor& b) {
  SDEA_CHECK_EQ(a.rank(), 2);
  SDEA_CHECK_EQ(b.rank(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  SDEA_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  base::ParallelFor(m, base::GrainForWork(m, k * n),
                    [&](int64_t begin, int64_t end) {
                      kernels::MatmulRows(pa, pb, pc, k, n, begin, end);
                    });
  return c;
}

Tensor MatmulTransposeB(const Tensor& a, const Tensor& b) {
  SDEA_CHECK_EQ(a.rank(), 2);
  SDEA_CHECK_EQ(b.rank(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  SDEA_CHECK_EQ(k, b.dim(1));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Each shard packs all of b into k-major panels once (the AVX2 exact
  // kernel), so a shard gets at least 16 rows to amortize the packing.
  const int64_t grain =
      std::max(base::GrainForWork(m, k * n), std::min<int64_t>(m, 16));
  base::ParallelFor(m, grain, [&](int64_t begin, int64_t end) {
    kernels::MatmulTransposeBRows(pa, pb, pc, k, n, begin, end);
  });
  return c;
}

Tensor MatmulTransposeA(const Tensor& a, const Tensor& b) {
  SDEA_CHECK_EQ(a.rank(), 2);
  SDEA_CHECK_EQ(b.rank(), 2);
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  SDEA_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  base::ParallelFor(m, base::GrainForWork(m, k * n),
                    [&](int64_t begin, int64_t end) {
                      kernels::MatmulTransposeARows(pa, pb, pc, k, m, n, begin,
                                                    end);
                    });
  return c;
}

// The element-wise ops check shapes once and then index raw pointers:
// Tensor::operator[] bounds-checks every access.

Tensor Add(const Tensor& a, const Tensor& b) {
  SDEA_CHECK(a.SameShape(b));
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < c.size(); ++i) pc[i] += pb[i];
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  SDEA_CHECK(a.SameShape(b));
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < c.size(); ++i) pc[i] -= pb[i];
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  SDEA_CHECK(a.SameShape(b));
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < c.size(); ++i) pc[i] *= pb[i];
  return c;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor c = a;
  float* pc = c.data();
  for (int64_t i = 0; i < c.size(); ++i) pc[i] *= s;
  return c;
}

Tensor AddConst(const Tensor& a, float c) {
  Tensor out = a;
  float* po = out.data();
  for (int64_t i = 0; i < out.size(); ++i) po[i] += c;
  return out;
}

void AxpyInto(const Tensor& a, float s, Tensor* out) {
  SDEA_CHECK(a.SameShape(*out));
  const float* pa = a.data();
  float* po = out->data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] += s * pa[i];
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  Tensor c = a;
  AddRowBroadcastInPlace(&c, bias);
  return c;
}

void AddRowBroadcastInPlace(Tensor* a, const Tensor& bias) {
  SDEA_CHECK_EQ(a->rank(), 2);
  SDEA_CHECK_EQ(bias.rank(), 1);
  SDEA_CHECK_EQ(a->dim(1), bias.dim(0));
  const int64_t rows = a->dim(0), cols = a->dim(1);
  const float* pb = bias.data();
  for (int64_t i = 0; i < rows; ++i) {
    float* row = a->data() + i * cols;
    for (int64_t j = 0; j < cols; ++j) row[j] += pb[j];
  }
}

Tensor SoftmaxRows(const Tensor& a) {
  SDEA_CHECK_EQ(a.rank(), 2);
  Tensor c = a;
  const int64_t rows = a.dim(0), cols = a.dim(1);
  // Rows are independent, so sharding them preserves bitwise results.
  base::ParallelFor(rows, base::GrainForWork(rows, 8 * cols),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        SoftmaxRowInPlace(c.data() + i * cols, cols);
                      }
                    });
  return c;
}

void SigmoidInPlace(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void TanhInPlace(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

void ReluInPlace(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::max(0.0f, x[i]);
}

void SoftmaxRowInPlace(float* row, int64_t n) {
  float mx = row[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  double sum = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - mx);
    sum += row[j];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (int64_t j = 0; j < n; ++j) row[j] *= inv;
}

void MeanRows(const float* x, int64_t rows, int64_t cols, float* out) {
  std::fill_n(out, cols, 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) out[j] += x[i * cols + j];
  }
  for (int64_t j = 0; j < cols; ++j) out[j] /= static_cast<float>(rows);
}

float L2NormalizeRow(const float* x, int64_t n, float eps, float* out) {
  double s = 0.0;
  for (int64_t j = 0; j < n; ++j) s += static_cast<double>(x[j]) * x[j];
  const double norm = std::sqrt(s);
  const double inv = norm < eps ? 1.0 : 1.0 / norm;
  for (int64_t j = 0; j < n; ++j) out[j] = static_cast<float>(x[j] * inv);
  return static_cast<float>(inv);
}

Tensor Transpose(const Tensor& a) {
  SDEA_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor c({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) c[j * m + i] = a[i * n + j];
  }
  return c;
}

float CosineSimilarity(const Tensor& a, const Tensor& b) {
  SDEA_CHECK_EQ(a.size(), b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

float SquaredL2Distance(const Tensor& a, const Tensor& b) {
  SDEA_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return static_cast<float>(s);
}

float Dot(const Tensor& a, const Tensor& b) {
  SDEA_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(s);
}

void L2NormalizeRowsInPlace(Tensor* a, float eps) {
  SDEA_CHECK_EQ(a->rank(), 2);
  const int64_t rows = a->dim(0), cols = a->dim(1);
  for (int64_t i = 0; i < rows; ++i) {
    float* row = a->data() + i * cols;
    double s = 0.0;
    for (int64_t j = 0; j < cols; ++j) s += static_cast<double>(row[j]) * row[j];
    const double norm = std::sqrt(s);
    if (norm < eps) continue;
    const float inv = static_cast<float>(1.0 / norm);
    for (int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

}  // namespace tmath
}  // namespace sdea
