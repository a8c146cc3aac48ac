// Numerical gradient verification for every differentiable op and the
// fused R-GCN layer op: perturb each input element by +-eps, compare the
// central-difference slope of a scalar loss against the analytic gradient
// from Backward().
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "gnn/rgcn.h"

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

// The fused R-GCN layer op, whose backward is hand-written over the
// message list: every parameter of a two-layer jk encoder with edge
// attention, then the input of one layer.
TEST(GradCheck, RgcnLayerOp) {
  gnn::RgcnConfig config;
  config.num_relations = 2;
  config.num_hops = 1;
  config.hidden_dim = 3;
  config.num_layers = 2;
  config.num_bases = 2;
  config.edge_dropout = 0.0f;
  config.attention_rel_dim = 2;
  config.jk_concat = true;
  Rng init(5);
  gnn::RgcnEncoder encoder(config, &init);
  // Large layer biases keep every pre-activation off ReLU's kink.
  for (const nn::Parameter& p : encoder.parameters()) {
    if (p.name.rfind("layer", 0) == 0 &&
        p.name.find(".bias") != std::string::npos) {
      Var bias = p.var;
      bias.mutable_value().Fill(4.0f);
    }
  }
  Subgraph sub;
  sub.nodes = {{10, 0, 1}, {11, 1, 0}, {12, 1, 1}, {13, -1, 1}};
  sub.edges = {{0, 0, 2}, {2, 1, 1}, {3, 0, 1}, {1, 1, 3}, {0, 1, 2}};
  const Tensor node_w = RandomTensor({4, encoder.output_dim()}, 7);
  const auto loss = [&] {
    return SumAll(Mul(encoder.Forward(sub, 1, /*training=*/false, nullptr)
                          .node_states,
                      Var::Constant(node_w)));
  };
  encoder.ZeroGrad();
  loss().Backward();
  const float eps = 1e-3f;
  const float tol = 2e-2f;
  for (const nn::Parameter& p : encoder.parameters()) {
    ASSERT_TRUE(p.var.has_grad()) << p.name;
    const Tensor analytic = p.var.grad().Clone();
    Var param = p.var;
    float* values = param.mutable_value().Data();
    for (int64_t i = 0; i < analytic.numel(); ++i) {
      const float saved = values[i];
      values[i] = saved + eps;
      const float up = loss().value().Data()[0];
      values[i] = saved - eps;
      const float down = loss().value().Data()[0];
      values[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float got = analytic.Data()[i];
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale) << p.name << " element " << i;
    }
  }

  auto messages = std::make_shared<const gnn::RgcnMessages>(
      encoder.BuildMessages(sub, 1, /*training=*/false, nullptr));
  const Tensor out_w = RandomTensor({4, config.hidden_dim}, 8);
  CheckGradients({RandomTensor({4, config.hidden_dim}, 9, 0.0f, 1.0f)},
                 [&](const std::vector<Var>& v) {
                   return SumAll(Mul(encoder.LayerOp(1, v[0], messages),
                                     Var::Constant(out_w)));
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
