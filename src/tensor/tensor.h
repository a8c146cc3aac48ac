// Dense float32 tensor with row-major contiguous storage. This is the
// numeric substrate for the autograd engine, the NN layers, and every model
// in the repository. The design favors simplicity and predictability over
// generality: storage is always contiguous, broadcasting is limited to the
// patterns the models actually use (scalar, and row-vector against a
// matrix), and shape errors abort via DEKG_CHECK.
#ifndef DEKG_TENSOR_TENSOR_H_
#define DEKG_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace dekg {

// Shape of a tensor; empty shape denotes a scalar tensor with one element.
using Shape = std::vector<int64_t>;

int64_t NumElements(const Shape& shape);
std::string ShapeToString(const Shape& shape);

// Value-semantic tensor. Copy is shallow (shared storage) to keep the
// autograd tape cheap; use Clone() for a deep copy. Mutating accessors
// (Data(), At()) affect all shallow copies, which is intentional: the
// autograd engine accumulates gradients in place.
class Tensor {
 public:
  // An empty (0-element, rank-1 shape {0}) tensor.
  Tensor();

  // Uninitialized storage of the given shape (values zeroed).
  explicit Tensor(Shape shape);

  // From explicit data; data.size() must equal NumElements(shape).
  Tensor(Shape shape, std::vector<float> data);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  // ----- Factories -----
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);
  // Uniform on [lo, hi).
  static Tensor Uniform(Shape shape, float lo, float hi, Rng* rng);
  // N(0, stddev^2).
  static Tensor Gaussian(Shape shape, float stddev, Rng* rng);
  // Xavier/Glorot uniform for a [fan_in, fan_out] matrix.
  static Tensor XavierUniform(Shape shape, Rng* rng);
  // 1-D tensor [0, 1, ..., n-1].
  static Tensor Arange(int64_t n);

  // ----- Introspection -----
  const Shape& shape() const { return shape_; }
  int64_t dim(size_t axis) const;
  size_t rank() const { return shape_.size(); }
  int64_t numel() const { return static_cast<int64_t>(data_->size()); }

  const float* Data() const { return data_->data(); }
  float* Data() { return data_->data(); }

  // Element access for rank-1/2/3 tensors (bounds-checked).
  float At(int64_t i) const;
  float At(int64_t i, int64_t j) const;
  float At(int64_t i, int64_t j, int64_t k) const;
  float& At(int64_t i);
  float& At(int64_t i, int64_t j);
  float& At(int64_t i, int64_t j, int64_t k);

  // ----- Whole-tensor helpers -----
  Tensor Clone() const;
  // Same storage, new shape; element counts must match.
  Tensor Reshape(Shape new_shape) const;
  void FillZero();
  void Fill(float value);
  // this += other (same shape). In-place; used for gradient accumulation.
  void AddInPlace(const Tensor& other);
  // this *= value.
  void ScaleInPlace(float value);

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string DebugString(int64_t max_elements = 16) const;

 private:
  int64_t FlatIndex2(int64_t i, int64_t j) const;
  int64_t FlatIndex3(int64_t i, int64_t j, int64_t k) const;

  Shape shape_;
  std::shared_ptr<std::vector<float>> data_;
};

// ----- Elementwise binary ops (same shape, or one side scalar, or
// row-vector [n] against matrix [m, n]) -----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// ----- Elementwise unary ops -----
Tensor Neg(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  // log(max(a, kLogEps)) for stability
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);

// ----- Matrix ops -----
// [m, k] x [k, n] -> [m, n]. Register-blocked dense kernel: 4-row x
// 8-column blocks whose running sums stay in vector registers across the
// whole k loop, with the remainder rows and columns produced
// tune::kMatMulColTile columns at a time (per-element k-ascending
// accumulation, unchanged from the historical kernel). Above a flop
// threshold the work splits deterministically across the thread pool —
// rows for m > 1, disjoint column tiles for single-row products. The
// n == 1 (dot-product column) shape instead follows the fixed-lane
// reduction contract of lanes.h / DESIGN.md §12.
Tensor MatMul(const Tensor& a, const Tensor& b);
// 2-D transpose.
Tensor Transpose(const Tensor& a);

// ----- Reductions -----
float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
// Row-wise over a [m, n] matrix -> [m]. Fixed-lane reduction order
// (lanes.h contract), double accumulators.
Tensor SumRows(const Tensor& a);
Tensor MeanRows(const Tensor& a);
// Column-wise over a [m, n] matrix -> [n].
Tensor SumCols(const Tensor& a);
// Column-wise per-segment sum / mean over the rows of a [m, n] matrix.
// `offsets` has K+1 ascending entries with offsets[0] == 0 and
// offsets[K] == m; segment g covers rows [offsets[g], offsets[g+1]) and
// must be non-empty. Accumulation is rows-ascending with a float
// accumulator (vectorized across independent columns, which never
// reorders a sum), and the mean applies one multiply by 1/len per
// element, so segment g's row is bit-identical to SumCols / MeanOverRows
// applied to that row block alone.
Tensor SegmentSumRows(const Tensor& a, const std::vector<int64_t>& offsets);
Tensor SegmentMeanRows(const Tensor& a, const std::vector<int64_t>& offsets);
// Numerically stable row-wise softmax on [m, n].
Tensor SoftmaxRows(const Tensor& a);
// L2 norm of each row of [m, n] -> [m]. Fixed-lane reduction order
// (lanes.h contract), double accumulators.
Tensor RowNorms(const Tensor& a);

// ----- Gather / scatter -----
// rows: [num_rows, n]; indices into dim 0 -> [indices.size(), n].
Tensor GatherRows(const Tensor& rows, const std::vector<int64_t>& indices);
// Adds each row of `updates` ([k, n]) into `target` ([m, n]) at row
// indices[i]. In-place scatter-add; duplicate indices accumulate.
void ScatterAddRows(Tensor* target, const std::vector<int64_t>& indices,
                    const Tensor& updates);

// ----- Structural -----
// Concatenate along axis 0 or 1 (rank must agree).
Tensor Concat(const std::vector<Tensor>& parts, int axis);
// rows [i, j) of a [m, n] matrix (copies).
Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end);

// ----- Convolution (for the ConvE baseline) -----
// input:  [batch, in_ch, h, w] flattened into rank-4 tensor
// kernel: [out_ch, in_ch, kh, kw]
// Valid (no padding), stride 1. Output [batch, out_ch, h-kh+1, w-kw+1].
Tensor Conv2d(const Tensor& input, const Tensor& kernel);

// Dot product of two same-shape tensors. Fixed-lane reduction order
// (lanes.h contract), double accumulators.
float Dot(const Tensor& a, const Tensor& b);

// Approximate equality for tests.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

inline constexpr float kLogEps = 1e-12f;

}  // namespace dekg

#endif  // DEKG_TENSOR_TENSOR_H_
