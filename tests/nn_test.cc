#include <cmath>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace dekg::nn {
namespace {

TEST(ModuleTest, ParameterRegistrationAndCount) {
  Rng rng(1);
  Linear linear(4, 3, /*with_bias=*/true, &rng);
  EXPECT_EQ(linear.parameters().size(), 2u);
  EXPECT_EQ(linear.ParameterCount(), 4 * 3 + 3);
  Linear no_bias(4, 3, /*with_bias=*/false, &rng);
  EXPECT_EQ(no_bias.ParameterCount(), 12);
}

TEST(ModuleTest, StateVectorRoundTrip) {
  Rng rng(2);
  Linear a(3, 2, true, &rng);
  Linear b(3, 2, true, &rng);
  std::vector<float> state = a.StateVector();
  EXPECT_EQ(state.size(), static_cast<size_t>(a.ParameterCount()));
  b.LoadStateVector(state);
  Tensor x = Tensor::Uniform({5, 3}, -1, 1, &rng);
  ag::Var ya = a.Forward(ag::Var::Constant(x));
  ag::Var yb = b.Forward(ag::Var::Constant(x));
  EXPECT_TRUE(AllClose(ya.value(), yb.value()));
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(3);
  Linear linear(2, 1, true, &rng);
  ag::Var y = ag::SumAll(linear.Forward(ag::Var::Constant(Tensor::Ones({1, 2}))));
  y.Backward();
  EXPECT_TRUE(linear.parameters()[0].var.has_grad());
  linear.ZeroGrad();
  EXPECT_FALSE(linear.parameters()[0].var.has_grad());
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(4);
  Linear linear(2, 2, true, &rng);
  // Overwrite with known weights.
  Tensor w({2, 2}, {1, 2, 3, 4});
  Tensor b({2}, {10, 20});
  std::vector<float> state;
  state.insert(state.end(), w.Data(), w.Data() + 4);
  state.insert(state.end(), b.Data(), b.Data() + 2);
  linear.LoadStateVector(state);
  Tensor x({1, 2}, {1, 1});
  ag::Var y = linear.Forward(ag::Var::Constant(x));
  EXPECT_FLOAT_EQ(y.value().At(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.value().At(0, 1), 2 + 4 + 20);
}

TEST(EmbeddingTest, GatherAndShapes) {
  Rng rng(5);
  Embedding emb(10, 4, &rng);
  EXPECT_EQ(emb.count(), 10);
  EXPECT_EQ(emb.dim(), 4);
  ag::Var rows = emb.Forward({3, 3, 7});
  EXPECT_EQ(rows.value().dim(0), 3);
  EXPECT_TRUE(AllClose(SliceRows(rows.value(), 0, 1),
                       SliceRows(rows.value(), 1, 2)));
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Rng rng(10);
  Linear model(2, 2, false, &rng);
  Adam opt(&model, {.lr = 0.1, .weight_decay = 0.5});
  // Zero-gradient steps: weights should decay toward 0.
  const float norm_before = SumAll(Abs(model.weight().value()));
  for (int step = 0; step < 10; ++step) {
    model.ZeroGrad();
    // Force a zero gradient by backward on 0 * sum(w).
    ag::Var loss = ag::MulScalar(ag::SumAll(model.weight()), 0.0f);
    loss.Backward();
    opt.Step();
  }
  const float norm_after = SumAll(Abs(model.weight().value()));
  EXPECT_LT(norm_after, norm_before * 0.7f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Rng rng(11);
  Linear model(4, 4, false, &rng);
  model.ZeroGrad();
  ag::Var loss = ag::MulScalar(ag::SumAll(model.weight()), 100.0f);
  loss.Backward();
  const double before = ClipGradNorm(&model, 1.0);
  EXPECT_GT(before, 1.0);
  // Norm after clipping is 1.
  double sq = 0.0;
  const Tensor& g = model.weight().grad();
  for (int64_t i = 0; i < g.numel(); ++i) {
    sq += static_cast<double>(g.Data()[i]) * g.Data()[i];
  }
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-4);
}

TEST(ClipGradNormTest, SmallGradientsUntouched) {
  Rng rng(12);
  Linear model(2, 2, false, &rng);
  model.ZeroGrad();
  ag::Var loss = ag::MulScalar(ag::SumAll(model.weight()), 1e-3f);
  loss.Backward();
  Tensor before = model.weight().grad().Clone();
  ClipGradNorm(&model, 10.0);
  EXPECT_TRUE(AllClose(before, model.weight().grad()));
}

TEST(MlpTest, ForwardShapeAndNonlinearity) {
  Rng rng(13);
  Mlp mlp(3, 8, 2, &rng);
  EXPECT_EQ(mlp.parameters().size(), 4u);
  ag::Var y = mlp.Forward(ag::Var::Constant(Tensor::Ones({5, 3})));
  EXPECT_EQ(y.value().dim(0), 5);
  EXPECT_EQ(y.value().dim(1), 2);
}

}  // namespace
}  // namespace dekg::nn
