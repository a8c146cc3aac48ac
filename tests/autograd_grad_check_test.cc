// Numerical gradient verification for every differentiable op: perturb each
// input element by +-eps, compare the central-difference slope of a scalar
// loss against the analytic gradient from Backward().
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "autograd/ops.h"

namespace dekg::ag {
namespace {

// Builds a scalar loss from leaf inputs, then checks d(loss)/d(input)
// numerically for every input element.
void CheckGradients(const std::vector<Tensor>& inputs,
                    const std::function<Var(const std::vector<Var>&)>& fn,
                    float eps = 1e-3f, float tol = 2e-2f) {
  // Analytic gradients.
  std::vector<Var> leaves;
  leaves.reserve(inputs.size());
  for (const Tensor& t : inputs) leaves.push_back(Var::Leaf(t.Clone(), true));
  Var loss = fn(leaves);
  ASSERT_EQ(loss.value().numel(), 1);
  loss.Backward();

  for (size_t p = 0; p < inputs.size(); ++p) {
    ASSERT_TRUE(leaves[p].has_grad()) << "input " << p << " got no gradient";
    const Tensor& analytic = leaves[p].grad();
    for (int64_t i = 0; i < inputs[p].numel(); ++i) {
      auto eval = [&](float delta) {
        std::vector<Var> probe;
        for (size_t q = 0; q < inputs.size(); ++q) {
          Tensor t = inputs[q].Clone();
          if (q == p) t.Data()[i] += delta;
          probe.push_back(Var::Leaf(std::move(t), false));
        }
        return fn(probe).value().Data()[0];
      };
      const float numeric = (eval(eps) - eval(-eps)) / (2.0f * eps);
      const float got = analytic.Data()[i];
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale)
          << "input " << p << " element " << i;
    }
  }
}

Tensor RandomTensor(Shape shape, uint64_t seed, float lo = -1.0f,
                    float hi = 1.0f) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), lo, hi, &rng);
}

TEST(GradCheck, AddMulSubChain) {
  CheckGradients({RandomTensor({2, 3}, 1), RandomTensor({2, 3}, 2)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Mul(Add(v[0], v[1]), Sub(v[0], v[1])));
                 });
}

TEST(GradCheck, ScalarBroadcast) {
  CheckGradients({RandomTensor({3, 2}, 5), RandomTensor({1}, 6)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Mul(v[0], v[1]));
                 });
}

TEST(GradCheck, RowBroadcastBias) {
  CheckGradients({RandomTensor({3, 4}, 7), RandomTensor({4}, 8)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(Add(v[0], v[1])));
                 });
}

TEST(GradCheck, MatMulBothSides) {
  CheckGradients({RandomTensor({3, 4}, 9), RandomTensor({4, 2}, 10)},
                 [](const std::vector<Var>& v) {
                   return SumAll(MatMul(v[0], v[1]));
                 });
}

TEST(GradCheck, SigmoidTanhChain) {
  CheckGradients({RandomTensor({5}, 12)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Tanh(Sigmoid(v[0])));
                 });
}

TEST(GradCheck, LogSqrt) {
  CheckGradients({RandomTensor({4}, 13, 0.5f, 2.0f)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Log(Sqrt(v[0])));
                 });
}

TEST(GradCheck, NegOp) {
  CheckGradients({RandomTensor({4}, 16), RandomTensor({4}, 17)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Mul(Neg(v[0]), v[1]));
                 });
}

TEST(GradCheck, AddScalarOp) {
  CheckGradients({RandomTensor({2, 3}, 34)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(AddScalar(v[0], 0.75f)));
                 });
}

TEST(GradCheck, MulScalarOp) {
  CheckGradients({RandomTensor({2, 3}, 35)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(MulScalar(v[0], -1.5f)));
                 });
}

TEST(GradCheck, ReluAwayFromKink) {
  CheckGradients({RandomTensor({6}, 14, 0.2f, 1.0f),
                  RandomTensor({6}, 15, -1.0f, -0.2f)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Add(Relu(v[0]), Relu(v[1])));
                 });
}

TEST(GradCheck, CosSin) {
  CheckGradients({RandomTensor({5}, 18)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Add(Cos(v[0]), Sin(v[0])));
                 });
}

TEST(GradCheck, SumRowsOp) {
  CheckGradients({RandomTensor({3, 4}, 19)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(SumRows(v[0])));
                 });
}

TEST(GradCheck, MeanOverRowsPooling) {
  CheckGradients({RandomTensor({4, 3}, 20)},
                 [](const std::vector<Var>& v) {
                   Var pooled = MeanOverRows(v[0]);  // [3]
                   return SumAll(Square(pooled));
                 });
}

TEST(GradCheck, SoftmaxRowsOp) {
  CheckGradients({RandomTensor({2, 4}, 21)},
                 [](const std::vector<Var>& v) {
                   Var s = SoftmaxRows(v[0]);
                   // Weighted sum makes the gradient non-trivial.
                   Tensor w({2, 4}, {1, 2, 3, 4, 4, 3, 2, 1});
                   return SumAll(Mul(s, Var::Constant(w)));
                 });
}

TEST(GradCheck, GatherRowsWithDuplicates) {
  CheckGradients({RandomTensor({4, 3}, 22)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(GatherRows(v[0], {0, 2, 2, 3})));
                 });
}

TEST(GradCheck, ScatterSumRowsOp) {
  CheckGradients({RandomTensor({4, 2}, 23)},
                 [](const std::vector<Var>& v) {
                   Var scattered = ScatterSumRows(v[0], {1, 0, 1, 2}, 3);
                   return SumAll(Square(scattered));
                 });
}

TEST(GradCheck, ScaleRowsBothInputs) {
  CheckGradients({RandomTensor({3, 4}, 24), RandomTensor({3}, 25)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(ScaleRows(v[0], v[1])));
                 });
}

TEST(GradCheck, ConcatAxis0) {
  CheckGradients({RandomTensor({2, 3}, 26), RandomTensor({1, 3}, 27)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(Concat({v[0], v[1]}, 0)));
                 });
}

TEST(GradCheck, ConcatAxis1) {
  CheckGradients({RandomTensor({2, 2}, 28), RandomTensor({2, 3}, 29)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(Concat({v[0], v[1]}, 1)));
                 });
}

TEST(GradCheck, SliceRowsOp) {
  CheckGradients({RandomTensor({4, 3}, 30)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(SliceRows(v[0], 1, 3)));
                 });
}

TEST(GradCheck, ReshapeOp) {
  CheckGradients({RandomTensor({2, 6}, 31)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(Reshape(v[0], {3, 4})));
                 });
}

TEST(GradCheck, Conv2dInputAndKernel) {
  CheckGradients({RandomTensor({1, 2, 4, 4}, 32), RandomTensor({2, 2, 2, 2}, 33)},
                 [](const std::vector<Var>& v) {
                   return SumAll(Square(Conv2d(v[0], v[1])));
                 });
}

TEST(GradCheck, SharedSubexpressionAccumulates) {
  // x used twice: d/dx (x*x + x) = 2x + 1.
  Tensor x({1}, {3.0f});
  Var leaf = Var::Leaf(x, true);
  Var loss = Add(Mul(leaf, leaf), leaf);
  loss.Backward();
  EXPECT_NEAR(leaf.grad().Data()[0], 7.0f, 1e-5f);
}

TEST(GradCheck, NoGradLeafGetsNoGradient) {
  Var a = Var::Leaf(Tensor::Scalar(2.0f), true);
  Var b = Var::Constant(Tensor::Scalar(3.0f));
  Var loss = Mul(a, b);
  loss.Backward();
  EXPECT_TRUE(a.has_grad());
  EXPECT_FALSE(b.has_grad());
  EXPECT_NEAR(a.grad().Data()[0], 3.0f, 1e-6f);
}

TEST(GradCheck, ZeroGradResets) {
  Var a = Var::Leaf(Tensor::Scalar(2.0f), true);
  Var loss = Square(a);
  loss.Backward();
  EXPECT_TRUE(a.has_grad());
  a.ZeroGrad();
  EXPECT_FALSE(a.has_grad());
}

}  // namespace
}  // namespace dekg::ag
