// Differentiable operations over ag::Var. Every op here has a hand-written
// backward closure; gradients are verified against numerical differentiation
// in tests/autograd_grad_check_test.cc.
#ifndef DEKG_AUTOGRAD_OPS_H_
#define DEKG_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"

namespace dekg::ag {

// ----- Elementwise binary (same shape, scalar broadcast, or [m,n] op [n]) --
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
// Elementwise division; no broadcast reduction beyond the supported kinds.
Var Div(const Var& a, const Var& b);

// ----- Scalar convenience -----
Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);

// ----- Elementwise unary -----
Var Neg(const Var& a);
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, float slope);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Exp(const Var& a);
Var Log(const Var& a);
Var Sqrt(const Var& a);
Var Cos(const Var& a);
Var Sin(const Var& a);
Var Square(const Var& a);
Var Abs(const Var& a);

// ----- Matrix -----
Var MatMul(const Var& a, const Var& b);
Var Transpose(const Var& a);

// ----- Reductions -----
// -> scalar [1].
Var SumAll(const Var& a);
Var MeanAll(const Var& a);
// [m, n] -> [m].
Var SumRows(const Var& a);
Var MeanRows(const Var& a);
// [m, n] -> [n]; the mean over rows (used for subgraph average pooling).
Var MeanOverRows(const Var& a);
// Row-wise softmax on [m, n].
Var SoftmaxRows(const Var& a);

// ----- Gather / scatter -----
// rows: [num_rows, n] -> [indices.size(), n]; backward scatter-adds.
Var GatherRows(const Var& rows, const std::vector<int64_t>& indices);
// updates: [k, n] scattered (sum) into a fresh [num_rows, n]; backward
// gathers. This is the message-aggregation primitive for the GNN.
Var ScatterSumRows(const Var& updates, const std::vector<int64_t>& indices,
                   int64_t num_rows);

// Multiplies row i of a [m, n] matrix by scalar s[i] ([m] or [m, 1]).
// Used for per-edge attention gates and basis coefficients in the GNN.
Var ScaleRows(const Var& a, const Var& s);

// ----- Segment reductions (packed block-diagonal batches) -----
// `offsets` has K+1 nondecreasing entries with offsets[0] == 0 and
// offsets[K] == a.dim(0); segment g is the row range
// [offsets[g], offsets[g+1]), which must be nonempty.
//
// Segment g of the output is the column-wise sum (resp. mean) of segment
// g's rows, accumulated in increasing row order with the exact float
// arithmetic of SumCols / MeanOverRows — so the result for a segment is
// bit-identical to running the whole-matrix reduction on that segment
// alone. This is what lets a packed subgraph batch reproduce per-graph
// readouts exactly (DESIGN.md §11).
// [m, n] -> [K, n].
Var SegmentSumRows(const Var& a, const std::vector<int64_t>& offsets);
// [m, n] -> [K, n]; segment-wise mean over rows.
Var SegmentMeanRows(const Var& a, const std::vector<int64_t>& offsets);

// ----- Structural -----
Var Concat(const std::vector<Var>& parts, int axis);
Var SliceRows(const Var& a, int64_t begin, int64_t end);
Var Reshape(const Var& a, Shape new_shape);

// ----- Regularization -----
// Multiplies by a Bernoulli(1-p)/(1-p) mask when training; identity
// otherwise. The mask is drawn from *rng.
Var Dropout(const Var& a, float p, bool training, Rng* rng);

// ----- Convolution (ConvE baseline) -----
// input [b, c_in, h, w], kernel [c_out, c_in, kh, kw]; valid, stride 1.
Var Conv2d(const Var& input, const Var& kernel);

// ----- Losses / compound ops -----
// Row-wise squared Euclidean distance between [m, n] matrices -> [m].
Var RowSquaredDistance(const Var& a, const Var& b);
// Binary cross entropy with logits: mean over all elements.
// targets is a constant tensor of 0/1 with the same shape as logits.
Var BceWithLogits(const Var& logits, const Tensor& targets);

}  // namespace dekg::ag

#endif  // DEKG_AUTOGRAD_OPS_H_
