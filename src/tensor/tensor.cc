#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/thread_pool.h"
#include "tensor/lanes.h"
#include "tensor/tuning.h"

namespace dekg {

namespace {

// Runs fn(begin, end) over [0, n): serially when the range is small,
// otherwise chunked across the default pool. fn must only write to
// indices inside its chunk, which keeps results independent of chunking.
template <typename F>
void MaybeParallelRange(int64_t n, int64_t serial_below, F&& fn) {
  if (n < serial_below) {
    fn(0, n);
  } else {
    ParallelFor(0, n, /*grain=*/0, fn);
  }
}

}  // namespace

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DEKG_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor() : Tensor(Shape{0}) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(std::make_shared<std::vector<float>>(NumElements(shape_), 0.0f)) {}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)) {
  DEKG_CHECK_EQ(NumElements(shape_), static_cast<int64_t>(data.size()));
  data_ = std::make_shared<std::vector<float>>(std::move(data));
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) { return Tensor(Shape{1}, {value}); }

Tensor Tensor::Uniform(Shape shape, float lo, float hi, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.Data()[i] = static_cast<float>(rng->UniformDouble(lo, hi));
  }
  return t;
}

Tensor Tensor::Gaussian(Shape shape, float stddev, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.Data()[i] = static_cast<float>(rng->NextGaussian() * stddev);
  }
  return t;
}

Tensor Tensor::XavierUniform(Shape shape, Rng* rng) {
  DEKG_CHECK_GE(shape.size(), 2u);
  double fan_in = static_cast<double>(shape[0]);
  double fan_out = static_cast<double>(shape[1]);
  float bound = static_cast<float>(std::sqrt(6.0 / (fan_in + fan_out)));
  return Uniform(std::move(shape), -bound, bound, rng);
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t(Shape{n});
  for (int64_t i = 0; i < n; ++i) t.Data()[i] = static_cast<float>(i);
  return t;
}

int64_t Tensor::dim(size_t axis) const {
  DEKG_CHECK_LT(axis, shape_.size());
  return shape_[axis];
}

int64_t Tensor::FlatIndex2(int64_t i, int64_t j) const {
  DEKG_CHECK_EQ(rank(), 2u);
  DEKG_CHECK(i >= 0 && i < shape_[0]) << "row " << i;
  DEKG_CHECK(j >= 0 && j < shape_[1]) << "col " << j;
  return i * shape_[1] + j;
}

int64_t Tensor::FlatIndex3(int64_t i, int64_t j, int64_t k) const {
  DEKG_CHECK_EQ(rank(), 3u);
  DEKG_CHECK(i >= 0 && i < shape_[0]);
  DEKG_CHECK(j >= 0 && j < shape_[1]);
  DEKG_CHECK(k >= 0 && k < shape_[2]);
  return (i * shape_[1] + j) * shape_[2] + k;
}

float Tensor::At(int64_t i) const {
  DEKG_CHECK_EQ(rank(), 1u);
  DEKG_CHECK(i >= 0 && i < shape_[0]);
  return (*data_)[static_cast<size_t>(i)];
}

float Tensor::At(int64_t i, int64_t j) const {
  return (*data_)[static_cast<size_t>(FlatIndex2(i, j))];
}

float Tensor::At(int64_t i, int64_t j, int64_t k) const {
  return (*data_)[static_cast<size_t>(FlatIndex3(i, j, k))];
}

float& Tensor::At(int64_t i) {
  DEKG_CHECK_EQ(rank(), 1u);
  DEKG_CHECK(i >= 0 && i < shape_[0]);
  return (*data_)[static_cast<size_t>(i)];
}

float& Tensor::At(int64_t i, int64_t j) {
  return (*data_)[static_cast<size_t>(FlatIndex2(i, j))];
}

float& Tensor::At(int64_t i, int64_t j, int64_t k) {
  return (*data_)[static_cast<size_t>(FlatIndex3(i, j, k))];
}

Tensor Tensor::Clone() const {
  return Tensor(shape_, *data_);
}

Tensor Tensor::Reshape(Shape new_shape) const {
  DEKG_CHECK_EQ(NumElements(new_shape), numel())
      << ShapeToString(shape_) << " -> " << ShapeToString(new_shape);
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::FillZero() { std::fill(data_->begin(), data_->end(), 0.0f); }

void Tensor::Fill(float value) {
  std::fill(data_->begin(), data_->end(), value);
}

void Tensor::AddInPlace(const Tensor& other) {
  DEKG_CHECK(SameShape(other))
      << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  const float* src = other.Data();
  float* dst = Data();
  lanes::LaneAddF32(dst, src, numel());
}

void Tensor::ScaleInPlace(float value) {
  lanes::LaneScaleF32(Data(), value, numel());
}

std::string Tensor::DebugString(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  int64_t n = std::min<int64_t>(numel(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << (*data_)[static_cast<size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << "}";
  return os.str();
}

namespace {

enum class BroadcastKind {
  kSameShape,
  kScalarRight,  // b has 1 element
  kScalarLeft,   // a has 1 element
  kRowRight,     // a is [m, n], b is [n]
};

BroadcastKind ClassifyBroadcast(const Tensor& a, const Tensor& b) {
  if (a.SameShape(b)) return BroadcastKind::kSameShape;
  if (b.numel() == 1) return BroadcastKind::kScalarRight;
  if (a.numel() == 1) return BroadcastKind::kScalarLeft;
  if (a.rank() == 2 && b.rank() == 1 && a.dim(1) == b.dim(0)) {
    return BroadcastKind::kRowRight;
  }
  DEKG_FATAL() << "Incompatible shapes for elementwise op: "
               << ShapeToString(a.shape()) << " vs "
               << ShapeToString(b.shape());
  return BroadcastKind::kSameShape;  // unreachable
}

template <typename F>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, F f) {
  switch (ClassifyBroadcast(a, b)) {
    case BroadcastKind::kSameShape: {
      Tensor out(a.shape());
      const float* pa = a.Data();
      const float* pb = b.Data();
      float* po = out.Data();
      MaybeParallelRange(a.numel(), tune::kParallelElementwiseMin,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) {
                             po[i] = f(pa[i], pb[i]);
                           }
                         });
      return out;
    }
    case BroadcastKind::kScalarRight: {
      Tensor out(a.shape());
      const float* pa = a.Data();
      const float sb = b.Data()[0];
      float* po = out.Data();
      MaybeParallelRange(a.numel(), tune::kParallelElementwiseMin,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) {
                             po[i] = f(pa[i], sb);
                           }
                         });
      return out;
    }
    case BroadcastKind::kScalarLeft: {
      Tensor out(b.shape());
      const float sa = a.Data()[0];
      const float* pb = b.Data();
      float* po = out.Data();
      MaybeParallelRange(b.numel(), tune::kParallelElementwiseMin,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) {
                             po[i] = f(sa, pb[i]);
                           }
                         });
      return out;
    }
    case BroadcastKind::kRowRight: {
      Tensor out(a.shape());
      const int64_t m = a.dim(0);
      const int64_t n = a.dim(1);
      const float* pa = a.Data();
      const float* pb = b.Data();
      float* po = out.Data();
      MaybeParallelRange(
          m, std::max<int64_t>(1, tune::kParallelElementwiseMin / std::max<int64_t>(n, 1)),
          [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              for (int64_t j = 0; j < n; ++j) {
                po[i * n + j] = f(pa[i * n + j], pb[j]);
              }
            }
          });
      return out;
    }
  }
  DEKG_FATAL() << "unreachable";
  return Tensor();
}

template <typename F>
Tensor ElementwiseUnary(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.Data();
  float* po = out.Data();
  MaybeParallelRange(a.numel(), tune::kParallelElementwiseMin,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
                     });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor Neg(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return -x; });
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) {
    // Branch for numerical stability on large |x|.
    if (x >= 0.0f) {
      float z = std::exp(-x);
      return 1.0f / (1.0f + z);
    }
    float z = std::exp(x);
    return z / (1.0f + z);
  });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::tanh(x); });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::exp(x); });
}

Tensor Log(const Tensor& a) {
  return ElementwiseUnary(
      a, [](float x) { return std::log(std::max(x, kLogEps)); });
}

Tensor Sqrt(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::sqrt(x); });
}

Tensor Square(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return x * x; });
}

Tensor Abs(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::fabs(x); });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  return ElementwiseUnary(
      a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}

namespace {

// Four floats as one generic vector (the GCC/Clang vector extension, not
// an ISA intrinsic). Lane-wise + and * are the scalar IEEE operations, so
// a vector accumulator holds exactly what four scalar ones would.
typedef float F32x4 __attribute__((vector_size(16)));

inline F32x4 LoadF32x4(const float* p) {
  F32x4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreF32x4(float* p, F32x4 v) { std::memcpy(p, &v, sizeof(v)); }

// out[i:i+4, j:j+8) as one register block: eight 4-float accumulators
// stay live across the whole k loop, and each output element accumulates
// acc += a[i, kk] * b[kk, j] in ascending kk from 0.0f — the historical
// i-k-j kernel's expression, element for element.
void MatMulBlock4x8(const float* pa, const float* pb, float* po, int64_t k,
                    int64_t n, int64_t i, int64_t j) {
  const float* a0 = pa + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  F32x4 c00 = {}, c01 = {}, c10 = {}, c11 = {};
  F32x4 c20 = {}, c21 = {}, c30 = {}, c31 = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* b_row = pb + kk * n + j;
    const F32x4 b0 = LoadF32x4(b_row);
    const F32x4 b1 = LoadF32x4(b_row + 4);
    const F32x4 x0 = {a0[kk], a0[kk], a0[kk], a0[kk]};
    c00 += x0 * b0;
    c01 += x0 * b1;
    const F32x4 x1 = {a1[kk], a1[kk], a1[kk], a1[kk]};
    c10 += x1 * b0;
    c11 += x1 * b1;
    const F32x4 x2 = {a2[kk], a2[kk], a2[kk], a2[kk]};
    c20 += x2 * b0;
    c21 += x2 * b1;
    const F32x4 x3 = {a3[kk], a3[kk], a3[kk], a3[kk]};
    c30 += x3 * b0;
    c31 += x3 * b1;
  }
  float* o = po + i * n + j;
  StoreF32x4(o, c00);
  StoreF32x4(o + 4, c01);
  StoreF32x4(o + n, c10);
  StoreF32x4(o + n + 4, c11);
  StoreF32x4(o + 2 * n, c20);
  StoreF32x4(o + 2 * n + 4, c21);
  StoreF32x4(o + 3 * n, c30);
  StoreF32x4(o + 3 * n + 4, c31);
}

// Row-at-a-time kernel for what the 4x8 blocks leave over: computes
// out[i, col_begin:col_end) for rows [row_begin, row_end), one column
// tile of tune::kMatMulColTile accumulators per pass over k. The
// single-row products ([1, k] x [k, n], per-triple scoring and the CLRM
// rows) run here entirely, on the constant-width full tile. Same
// per-element expression as the block.
void MatMulTileRows(const float* pa, const float* pb, float* po, int64_t k,
                    int64_t n, int64_t row_begin, int64_t row_end,
                    int64_t col_begin, int64_t col_end) {
  constexpr int64_t kTile = tune::kMatMulColTile;
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* a_row = pa + i * k;
    float* out_row = po + i * n;
    for (int64_t j0 = col_begin; j0 < col_end; j0 += kTile) {
      const int64_t width = std::min<int64_t>(kTile, col_end - j0);
      float acc[kTile] = {0.0f};
      if (width == kTile) {
        // Full tile: constant trip count, the shape the vectorizer maps
        // straight onto vector registers.
        for (int64_t kk = 0; kk < k; ++kk) {
          const float aik = a_row[kk];
          const float* b_row = pb + kk * n + j0;
          for (int64_t jj = 0; jj < kTile; ++jj) acc[jj] += aik * b_row[jj];
        }
      } else {
        for (int64_t kk = 0; kk < k; ++kk) {
          const float aik = a_row[kk];
          const float* b_row = pb + kk * n + j0;
          for (int64_t jj = 0; jj < width; ++jj) acc[jj] += aik * b_row[jj];
        }
      }
      for (int64_t jj = 0; jj < width; ++jj) out_row[j0 + jj] = acc[jj];
    }
  }
}

// MatMul's n > 1 kernel over out[row_begin:row_end, col_begin:col_end):
// 4x8 register blocks over the bulk, the tile kernel for the remainder
// columns of the blocked rows and for the remainder rows. Every output
// element is computed exactly once with the same expression, so neither
// the blocking nor the caller's split changes a result bit.
void MatMulRowsCols(const float* pa, const float* pb, float* po, int64_t k,
                    int64_t n, int64_t row_begin, int64_t row_end,
                    int64_t col_begin, int64_t col_end) {
  const int64_t block_rows_end = row_end - (row_end - row_begin) % 4;
  const int64_t block_cols_end = col_end - (col_end - col_begin) % 8;
  for (int64_t i = row_begin; i < block_rows_end; i += 4) {
    for (int64_t j = col_begin; j < block_cols_end; j += 8) {
      MatMulBlock4x8(pa, pb, po, k, n, i, j);
    }
  }
  if (block_cols_end < col_end) {
    MatMulTileRows(pa, pb, po, k, n, row_begin, block_rows_end,
                   block_cols_end, col_end);
  }
  MatMulTileRows(pa, pb, po, k, n, block_rows_end, row_end, col_begin,
                 col_end);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  DEKG_CHECK_EQ(b.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  DEKG_CHECK_EQ(k, b.dim(0)) << "MatMul inner dims: " << ShapeToString(a.shape())
                             << " x " << ShapeToString(b.shape());
  const int64_t n = b.dim(1);
  Tensor out(Shape{m, n});
  const float* pa = a.Data();
  const float* pb = b.Data();
  float* po = out.Data();
  if (n == 1) {
    // Dot-product column ([m, k] x [k, 1]): the contiguous b column makes
    // each output element one LaneDotF32 under the fixed-lane reduction
    // contract.
    auto dot_rows = [&](int64_t row_begin, int64_t row_end) {
      for (int64_t i = row_begin; i < row_end; ++i) {
        po[i] = lanes::LaneDotF32(pa + i * k, pb, k);
      }
    };
    if (m * k >= tune::kParallelMatMulMinFlops && m > 1) {
      ParallelFor(0, m, /*grain=*/0, dot_rows);
    } else {
      dot_rows(0, m);
    }
    return out;
  }
  // Output elements are computed exactly once each, so both row blocks
  // and column tiles parallelize without changing any result bit.
  if (m * k * n >= tune::kParallelMatMulMinFlops) {
    if (m > 1) {
      ParallelFor(0, m, /*grain=*/0,
                  [&](int64_t row_begin, int64_t row_end) {
                    MatMulRowsCols(pa, pb, po, k, n, row_begin, row_end, 0,
                                   n);
                  });
    } else {
      // Single-row product ([1, k] x [k, n], the per-triple scoring
      // shape): rows cannot be split, so split the output columns into
      // disjoint tile-aligned ranges instead.
      constexpr int64_t kTile = tune::kMatMulColTile;
      const int64_t tiles = (n + kTile - 1) / kTile;
      ParallelFor(0, tiles, /*grain=*/0,
                  [&](int64_t tile_begin, int64_t tile_end) {
                    MatMulRowsCols(pa, pb, po, k, n, 0, 1, tile_begin * kTile,
                                   std::min<int64_t>(tile_end * kTile, n));
                  });
    }
  } else {
    MatMulRowsCols(pa, pb, po, k, n, 0, m, 0, n);
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape{n, m});
  const float* pa = a.Data();
  float* po = out.Data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
  return out;
}

float SumAll(const Tensor& a) {
  // Plain sequential accumulation in double, element order: deterministic,
  // and the wide accumulator keeps float sums accurate.
  double sum = 0.0;
  const float* p = a.Data();
  for (int64_t i = 0; i < a.numel(); ++i) sum += p[i];
  return static_cast<float>(sum);
}

float MeanAll(const Tensor& a) {
  DEKG_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<float>(a.numel());
}

float MaxAll(const Tensor& a) {
  DEKG_CHECK_GT(a.numel(), 0);
  const float* p = a.Data();
  float best = p[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::max(best, p[i]);
  return best;
}

Tensor SumRows(const Tensor& a) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape{m});
  const float* pa = a.Data();
  float* po = out.Data();
  // Per-row fixed-lane sum (double accumulators) under the lanes.h
  // reduction contract.
  for (int64_t i = 0; i < m; ++i) {
    po[i] = static_cast<float>(lanes::LaneSumF64(pa + i * n, n));
  }
  return out;
}

Tensor MeanRows(const Tensor& a) {
  DEKG_CHECK_GT(a.dim(1), 0);
  Tensor s = SumRows(a);
  s.ScaleInPlace(1.0f / static_cast<float>(a.dim(1)));
  return s;
}

Tensor SumCols(const Tensor& a) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape{n});
  const float* pa = a.Data();
  float* po = out.Data();
  // Row-ascending accumulation per column, exactly as before — the lane
  // loop only regroups independent columns, so no bit changes.
  for (int64_t i = 0; i < m; ++i) {
    lanes::LaneAddF32(po, pa + i * n, n);
  }
  return out;
}

namespace {

Tensor SegmentReduceRowsImpl(const Tensor& a,
                             const std::vector<int64_t>& offsets,
                             bool scale_by_len) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  DEKG_CHECK_GE(offsets.size(), 2u) << "segment offsets need K+1 entries";
  DEKG_CHECK_EQ(offsets.front(), 0);
  DEKG_CHECK_EQ(offsets.back(), a.dim(0));
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    DEKG_CHECK_LT(offsets[g], offsets[g + 1]) << "empty segment " << g;
  }
  const int64_t num_segments = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t cols = a.dim(1);
  Tensor out(Shape{num_segments, cols});
  const float* pa = a.Data();
  float* po = out.Data();
  // Row-ascending accumulation per column is preserved — the lane loops
  // only regroup independent columns, so segment reductions stay
  // bit-identical to the pre-SIMD kernel.
  for (int64_t g = 0; g < num_segments; ++g) {
    float* out_row = po + g * cols;
    for (int64_t i = offsets[static_cast<size_t>(g)];
         i < offsets[static_cast<size_t>(g) + 1]; ++i) {
      lanes::LaneAddF32(out_row, pa + i * cols, cols);
    }
    if (scale_by_len) {
      const float inv =
          1.0f / static_cast<float>(offsets[static_cast<size_t>(g) + 1] -
                                    offsets[static_cast<size_t>(g)]);
      lanes::LaneScaleF32(out_row, inv, cols);
    }
  }
  return out;
}

}  // namespace

Tensor SegmentSumRows(const Tensor& a, const std::vector<int64_t>& offsets) {
  return SegmentReduceRowsImpl(a, offsets, /*scale_by_len=*/false);
}

Tensor SegmentMeanRows(const Tensor& a, const std::vector<int64_t>& offsets) {
  return SegmentReduceRowsImpl(a, offsets, /*scale_by_len=*/true);
}

Tensor SoftmaxRows(const Tensor& a) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(a.shape());
  const float* pa = a.Data();
  float* po = out.Data();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    float* orow = po + i * n;
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < n; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor RowNorms(const Tensor& a) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape{m});
  const float* pa = a.Data();
  float* po = out.Data();
  // Per-row fixed-lane sum of squares (double accumulators) under the
  // lanes.h reduction contract.
  for (int64_t i = 0; i < m; ++i) {
    po[i] = static_cast<float>(std::sqrt(lanes::LaneSumSquaresF64(pa + i * n, n)));
  }
  return out;
}

Tensor GatherRows(const Tensor& rows, const std::vector<int64_t>& indices) {
  DEKG_CHECK_EQ(rows.rank(), 2u);
  const int64_t n = rows.dim(1);
  Tensor out(Shape{static_cast<int64_t>(indices.size()), n});
  const float* src = rows.Data();
  float* dst = out.Data();
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t idx = indices[i];
    DEKG_CHECK(idx >= 0 && idx < rows.dim(0)) << "gather index " << idx;
    std::copy(src + idx * n, src + (idx + 1) * n, dst + static_cast<int64_t>(i) * n);
  }
  return out;
}

void ScatterAddRows(Tensor* target, const std::vector<int64_t>& indices,
                    const Tensor& updates) {
  DEKG_CHECK_EQ(target->rank(), 2u);
  DEKG_CHECK_EQ(updates.rank(), 2u);
  DEKG_CHECK_EQ(updates.dim(0), static_cast<int64_t>(indices.size()));
  DEKG_CHECK_EQ(updates.dim(1), target->dim(1));
  const int64_t n = target->dim(1);
  float* dst = target->Data();
  const float* src = updates.Data();
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t idx = indices[i];
    DEKG_CHECK(idx >= 0 && idx < target->dim(0)) << "scatter index " << idx;
    for (int64_t j = 0; j < n; ++j) {
      dst[idx * n + j] += src[static_cast<int64_t>(i) * n + j];
    }
  }
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  DEKG_CHECK(!parts.empty());
  DEKG_CHECK(axis == 0 || axis == 1) << "Concat supports axis 0 or 1";
  if (parts.size() == 1) return parts[0];
  if (parts[0].rank() == 1) {
    DEKG_CHECK_EQ(axis, 0);
    int64_t total = 0;
    for (const auto& p : parts) {
      DEKG_CHECK_EQ(p.rank(), 1u);
      total += p.dim(0);
    }
    Tensor out(Shape{total});
    int64_t off = 0;
    for (const auto& p : parts) {
      std::copy(p.Data(), p.Data() + p.numel(), out.Data() + off);
      off += p.numel();
    }
    return out;
  }
  DEKG_CHECK_EQ(parts[0].rank(), 2u);
  if (axis == 0) {
    const int64_t n = parts[0].dim(1);
    int64_t rows = 0;
    for (const auto& p : parts) {
      DEKG_CHECK_EQ(p.dim(1), n);
      rows += p.dim(0);
    }
    Tensor out(Shape{rows, n});
    int64_t off = 0;
    for (const auto& p : parts) {
      std::copy(p.Data(), p.Data() + p.numel(), out.Data() + off);
      off += p.numel();
    }
    return out;
  }
  // axis == 1
  const int64_t m = parts[0].dim(0);
  int64_t cols = 0;
  for (const auto& p : parts) {
    DEKG_CHECK_EQ(p.dim(0), m);
    cols += p.dim(1);
  }
  Tensor out(Shape{m, cols});
  for (int64_t i = 0; i < m; ++i) {
    int64_t off = 0;
    for (const auto& p : parts) {
      const int64_t pn = p.dim(1);
      std::copy(p.Data() + i * pn, p.Data() + (i + 1) * pn,
                out.Data() + i * cols + off);
      off += pn;
    }
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end) {
  DEKG_CHECK_EQ(a.rank(), 2u);
  DEKG_CHECK(begin >= 0 && begin <= end && end <= a.dim(0));
  const int64_t n = a.dim(1);
  Tensor out(Shape{end - begin, n});
  std::copy(a.Data() + begin * n, a.Data() + end * n, out.Data());
  return out;
}

Tensor Conv2d(const Tensor& input, const Tensor& kernel) {
  DEKG_CHECK_EQ(input.rank(), 4u);
  DEKG_CHECK_EQ(kernel.rank(), 4u);
  const int64_t batch = input.dim(0);
  const int64_t in_ch = input.dim(1);
  const int64_t h = input.dim(2);
  const int64_t w = input.dim(3);
  const int64_t out_ch = kernel.dim(0);
  DEKG_CHECK_EQ(kernel.dim(1), in_ch);
  const int64_t kh = kernel.dim(2);
  const int64_t kw = kernel.dim(3);
  DEKG_CHECK(kh <= h && kw <= w) << "kernel larger than input";
  const int64_t oh = h - kh + 1;
  const int64_t ow = w - kw + 1;
  Tensor out(Shape{batch, out_ch, oh, ow});
  const float* pi = input.Data();
  const float* pk = kernel.Data();
  float* po = out.Data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t oc = 0; oc < out_ch; ++oc) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          double acc = 0.0;
          for (int64_t ic = 0; ic < in_ch; ++ic) {
            for (int64_t dy = 0; dy < kh; ++dy) {
              const float* in_row = pi + ((b * in_ch + ic) * h + (y + dy)) * w + x;
              const float* k_row = pk + ((oc * in_ch + ic) * kh + dy) * kw;
              for (int64_t dx = 0; dx < kw; ++dx) acc += in_row[dx] * k_row[dx];
            }
          }
          po[((b * out_ch + oc) * oh + y) * ow + x] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

float Dot(const Tensor& a, const Tensor& b) {
  DEKG_CHECK(a.SameShape(b));
  // Fixed-lane dot (double accumulators) under the lanes.h contract.
  return static_cast<float>(lanes::LaneDotF64(a.Data(), b.Data(), a.numel()));
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  if (!a.SameShape(b)) return false;
  const float* pa = a.Data();
  const float* pb = b.Data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol) return false;
  }
  return true;
}

}  // namespace dekg
