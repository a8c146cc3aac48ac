// Differentiable operations over ag::Var. Every op here has a hand-written
// backward closure; gradients are verified against numerical differentiation
// in tests/autograd_grad_check_test.cc.
#ifndef DEKG_AUTOGRAD_OPS_H_
#define DEKG_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"

namespace dekg::ag {

// ----- Elementwise binary (same shape, scalar broadcast, or [m,n] op [n]) --
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);

// ----- Scalar convenience -----
Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);

// ----- Elementwise unary -----
Var Neg(const Var& a);
Var Relu(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Log(const Var& a);
Var Sqrt(const Var& a);
Var Cos(const Var& a);
Var Sin(const Var& a);
Var Square(const Var& a);

// ----- Matrix -----
Var MatMul(const Var& a, const Var& b);

// ----- Reductions -----
// -> scalar [1].
Var SumAll(const Var& a);
// [m, n] -> [m].
Var SumRows(const Var& a);
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

// ----- Structural -----
Var Concat(const std::vector<Var>& parts, int axis);
Var SliceRows(const Var& a, int64_t begin, int64_t end);
Var Reshape(const Var& a, Shape new_shape);

// ----- Convolution (ConvE baseline) -----
// input [b, c_in, h, w], kernel [c_out, c_in, kh, kw]; valid, stride 1.
Var Conv2d(const Var& input, const Var& kernel);

}  // namespace dekg::ag

#endif  // DEKG_AUTOGRAD_OPS_H_
