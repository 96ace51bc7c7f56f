#ifndef SDEA_TENSOR_TENSOR_H_
#define SDEA_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"

namespace sdea {

/// A dense row-major float32 tensor with value semantics. The library's
/// workloads are dominated by rank-1 and rank-2 tensors (vectors and
/// matrices); higher ranks are supported for storage but most math entry
/// points require rank <= 2.
class Tensor {
 public:
  /// Empty (rank-0, no elements).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Tensor of the given shape filled with `fill`.
  Tensor(std::vector<int64_t> shape, float fill);

  /// Tensor with explicit contents; `data.size()` must equal the shape's
  /// element count.
  Tensor(std::vector<int64_t> shape, std::vector<float> data);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  /// 1-D tensor from values.
  static Tensor FromVector(const std::vector<float>& values);

  /// [rows, cols] tensor with i.i.d. N(0, stddev^2) entries.
  static Tensor RandomNormal(std::vector<int64_t> shape, float stddev,
                             Rng* rng);

  /// [rows, cols] tensor with i.i.d. U(-limit, limit) entries (Glorot-style
  /// init when limit = sqrt(6/(fan_in+fan_out))).
  static Tensor RandomUniform(std::vector<int64_t> shape, float limit,
                              Rng* rng);

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  /// Dimension `i` of the shape; negative indices count from the back.
  int64_t dim(int64_t i) const;

  /// Rows/cols of a rank-2 tensor (rank-1 is treated as [1, n]).
  int64_t rows() const;
  int64_t cols() const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) {
    SDEA_CHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    SDEA_CHECK(i >= 0 && i < size());
    return data_[static_cast<size_t>(i)];
  }

  /// Element of a rank-2 tensor.
  float& at(int64_t r, int64_t c) {
    SDEA_CHECK_EQ(rank(), 2);
    SDEA_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    SDEA_CHECK_EQ(rank(), 2);
    SDEA_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// Sets every element to `v`.
  void Fill(float v);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// Reinterprets the data with a new shape of equal element count.
  Tensor Reshaped(std::vector<int64_t> new_shape) const;

  /// Returns row `r` of a rank-2 tensor as a rank-1 tensor (copy).
  Tensor Row(int64_t r) const;

  /// Copies `src` (rank-1, length cols()) into row `r`.
  void SetRow(int64_t r, const Tensor& src);

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Sum of all elements (accumulated in double, rounded once at the end).
  float Sum() const;

  /// Euclidean norm of all elements.
  float Norm() const;

  /// Largest absolute element (0 for empty).
  float AbsMax() const;

  /// Human-readable summary (shape + first few values), for debugging.
  std::string DebugString() const;

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

/// Free-function math on plain tensors (no autograd). These back both the
/// autograd ops and inference-only fast paths.
///
/// Accumulation policy (all three matmul variants; the one kernel
/// contract): every output element accumulates its k partial products in
/// double precision, in ascending-k order, with no term skipped (so
/// NaN/Inf in either operand propagates per IEEE semantics), and is
/// rounded to float exactly once at the end. The variants therefore agree bitwise on
/// transposed views of the same operands, e.g. Matmul(a, b) ==
/// MatmulTransposeB(a, Transpose(b)). The portable and AVX2 kernels both
/// keep this contract: every non-NaN output has the same bits at every
/// SimdLevel, and NaN outputs sit in the same positions. A NaN's payload is
/// not part of the contract, since which of two NaN operands propagates
/// depends on instruction operand order.
///
/// Threading: Matmul / MatmulTransposeB / MatmulTransposeA / SoftmaxRows
/// shard output rows across base::ThreadPool::Global(). Each shard owns a
/// disjoint row range and runs the identical per-row kernel as the serial
/// path, so results are bitwise-identical for every thread count (see the
/// determinism contract in base/threadpool.h).
namespace tmath {

/// c = a @ b for rank-2 a [m,k], b [k,n].
Tensor Matmul(const Tensor& a, const Tensor& b);

/// c = a @ b^T for rank-2 a [m,k], b [n,k]. Used for similarity matrices.
Tensor MatmulTransposeB(const Tensor& a, const Tensor& b);

/// c = a^T @ b for rank-2 a [k,m], b [k,n].
Tensor MatmulTransposeA(const Tensor& a, const Tensor& b);

/// Element-wise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// Element-wise a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Element-wise a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * s.
Tensor Scale(const Tensor& a, float s);

/// a + c element-wise.
Tensor AddConst(const Tensor& a, float c);

/// out += a * s (axpy); shapes must match.
void AxpyInto(const Tensor& a, float s, Tensor* out);

/// Adds rank-1 `bias` (length cols) to each row of rank-2 `a`.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// AddRowBroadcast in place.
void AddRowBroadcastInPlace(Tensor* a, const Tensor& bias);

/// Row-wise softmax of a rank-2 tensor (numerically stable).
Tensor SoftmaxRows(const Tensor& a);

// Row helpers: the arithmetic of the autograd ops that have no
// plain-tensor form above. Each Graph op and its no-grad counterpart (the
// Infer forwards in nn/, RelationEmbeddingModule's embed-all) call the
// same helper, so inference off the tape rounds exactly as the tape does.
// ReLU is kernels::ReluInPlace (tensor/kernels.h), one SIMD dispatch for
// both.

/// x[i] = 1 / (1 + exp(-x[i])) for i in [0, n).
void SigmoidInPlace(float* x, int64_t n);

/// x[i] = tanh(x[i]).
void TanhInPlace(float* x, int64_t n);

/// Softmax of one row in place: shifted by the row max, exponentials
/// summed in double, scaled by the float-rounded inverse sum.
void SoftmaxRowInPlace(float* row, int64_t n);

/// out[j] = mean of column j over `rows` rows of row-major x [rows, cols]:
/// a float accumulator in row order, then one division by `rows`.
void MeanRows(const float* x, int64_t rows, int64_t cols, float* out);

/// The eps Graph::L2NormalizeRows defaults to.
inline constexpr float kL2NormalizeEps = 1e-8f;

/// Unit-L2 normalization of one row of length n: out[j] =
/// float(x[j] * inv) with inv = 1 / ||x|| in double (1 when the norm is
/// below eps). Returns float(inv). This is Graph::L2NormalizeRows' rule;
/// L2NormalizeRowsInPlace below rounds the inverse to float first, so the
/// two may differ in the last bit.
float L2NormalizeRow(const float* x, int64_t n, float eps, float* out);

/// The position of the first maximum of row[0, n), n >= 1: a scan from
/// position 0 that moves only to a strictly greater element, so ties keep
/// the lowest position and a NaN never wins (a NaN at position 0 is kept).
inline int64_t ArgMaxRow(const float* row, int64_t n) {
  int64_t arg = 0;
  for (int64_t j = 1; j < n; ++j) {
    if (row[j] > row[arg]) arg = j;
  }
  return arg;
}

/// 2-D transpose.
Tensor Transpose(const Tensor& a);

/// Cosine similarity of two equal-length rank-1 tensors (0 if either is 0).
float CosineSimilarity(const Tensor& a, const Tensor& b);

/// Squared L2 distance between two equal-length rank-1 tensors.
float SquaredL2Distance(const Tensor& a, const Tensor& b);

/// Dot product of two equal-length rank-1 tensors.
float Dot(const Tensor& a, const Tensor& b);

/// Normalizes each row of a rank-2 tensor to unit L2 norm in place
/// (rows with norm < eps are left unchanged).
void L2NormalizeRowsInPlace(Tensor* a, float eps = 1e-12f);

}  // namespace tmath

}  // namespace sdea

#endif  // SDEA_TENSOR_TENSOR_H_
