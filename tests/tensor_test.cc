#include "tensor/tensor.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dekg {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(t.At(i, j), 0.0f);
  }
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.At(i), 2.5f);
  Tensor s = Tensor::Scalar(-1.0f);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.At(0), -1.0f);
}

TEST(TensorTest, ArangeProducesSequence) {
  Tensor t = Tensor::Arange(5);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(t.At(i), static_cast<float>(i));
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::Zeros({2});
  Tensor shallow = a;
  Tensor deep = a.Clone();
  a.At(0) = 7.0f;
  EXPECT_EQ(shallow.At(0), 7.0f);
  EXPECT_EQ(deep.At(0), 0.0f);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::Arange(6);
  Tensor b = a.Reshape({2, 3});
  EXPECT_EQ(b.At(1, 2), 5.0f);
  b.At(0, 0) = 9.0f;
  EXPECT_EQ(a.At(0), 9.0f);
}

TEST(TensorTest, AddSameShape) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {10.0f, 20.0f});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.At(0), 11.0f);
  EXPECT_EQ(c.At(1), 22.0f);
}

TEST(TensorTest, AddScalarBroadcast) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor c = Add(a, Tensor::Scalar(5.0f));
  EXPECT_EQ(c.At(0), 6.0f);
  EXPECT_EQ(c.At(1), 7.0f);
  Tensor d = Add(Tensor::Scalar(5.0f), a);
  EXPECT_EQ(d.At(1), 7.0f);
}

TEST(TensorTest, RowVectorBroadcast) {
  Tensor a({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor bias({2}, {10.0f, 20.0f});
  Tensor c = Add(a, bias);
  EXPECT_EQ(c.At(0, 0), 11.0f);
  EXPECT_EQ(c.At(0, 1), 22.0f);
  EXPECT_EQ(c.At(1, 0), 13.0f);
  EXPECT_EQ(c.At(1, 1), 24.0f);
}

TEST(TensorTest, MulDivSub) {
  Tensor a({2}, {6.0f, 8.0f});
  Tensor b({2}, {2.0f, 4.0f});
  EXPECT_EQ(Mul(a, b).At(1), 32.0f);
  EXPECT_EQ(Div(a, b).At(0), 3.0f);
  EXPECT_EQ(Sub(a, b).At(1), 4.0f);
}

TEST(TensorTest, MatMulKnownValues) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At(0, 0), 58.0f);
  EXPECT_EQ(c.At(0, 1), 64.0f);
  EXPECT_EQ(c.At(1, 0), 139.0f);
  EXPECT_EQ(c.At(1, 1), 154.0f);
}

TEST(TensorTest, TransposeRoundTrip) {
  Rng rng(1);
  Tensor a = Tensor::Uniform({3, 5}, -1.0f, 1.0f, &rng);
  Tensor round_trip = Transpose(Transpose(a));
  EXPECT_TRUE(AllClose(a, round_trip));
}

TEST(TensorTest, Reductions) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(SumAll(a), 21.0f);
  EXPECT_FLOAT_EQ(MeanAll(a), 3.5f);
  EXPECT_FLOAT_EQ(MaxAll(a), 6.0f);
  Tensor rows = SumRows(a);
  EXPECT_FLOAT_EQ(rows.At(0), 6.0f);
  EXPECT_FLOAT_EQ(rows.At(1), 15.0f);
  Tensor cols = SumCols(a);
  EXPECT_FLOAT_EQ(cols.At(0), 5.0f);
  EXPECT_FLOAT_EQ(cols.At(2), 9.0f);
}

TEST(TensorTest, SoftmaxRowsSumsToOne) {
  Tensor a({2, 4}, {1, 2, 3, 4, -1, 0, 1, 100});
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 4; ++j) {
      sum += s.At(i, j);
      EXPECT_GE(s.At(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Large logit dominates without overflow.
  EXPECT_NEAR(s.At(1, 3), 1.0f, 1e-5f);
}

TEST(TensorTest, UnaryOps) {
  Tensor a({3}, {-2.0f, 0.0f, 2.0f});
  EXPECT_EQ(Relu(a).At(0), 0.0f);
  EXPECT_EQ(Relu(a).At(2), 2.0f);
  EXPECT_NEAR(Sigmoid(a).At(1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(a).At(2), std::tanh(2.0f), 1e-6f);
  EXPECT_EQ(Abs(a).At(0), 2.0f);
  EXPECT_EQ(Square(a).At(2), 4.0f);
  EXPECT_EQ(Neg(a).At(0), 2.0f);
  EXPECT_EQ(Clamp(a, -1.0f, 1.0f).At(0), -1.0f);
}

TEST(TensorTest, SigmoidExtremesStable) {
  Tensor a({2}, {-100.0f, 100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.At(0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.At(1), 1.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(s.At(0)));
}

TEST(TensorTest, GatherRows) {
  Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.dim(0), 3);
  EXPECT_EQ(g.At(0, 0), 5.0f);
  EXPECT_EQ(g.At(1, 1), 2.0f);
  EXPECT_EQ(g.At(2, 1), 6.0f);
}

TEST(TensorTest, ScatterAddAccumulatesDuplicates) {
  Tensor target = Tensor::Zeros({3, 2});
  Tensor updates({2, 2}, {1, 1, 2, 2});
  ScatterAddRows(&target, {1, 1}, updates);
  EXPECT_EQ(target.At(1, 0), 3.0f);
  EXPECT_EQ(target.At(0, 0), 0.0f);
}

TEST(TensorTest, ConcatAxis0And1) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({1, 2}, {3, 4});
  Tensor v = Concat({a, b}, 0);
  EXPECT_EQ(v.dim(0), 2);
  EXPECT_EQ(v.At(1, 1), 4.0f);
  Tensor h = Concat({a, b}, 1);
  EXPECT_EQ(h.dim(1), 4);
  EXPECT_EQ(h.At(0, 2), 3.0f);
}

TEST(TensorTest, SliceRows) {
  Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(a, 1, 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.At(0, 0), 3.0f);
  EXPECT_EQ(s.At(1, 1), 6.0f);
}

TEST(TensorTest, Conv2dIdentityKernel) {
  // 1x1x3x3 input, single 1x1 kernel of value 2 -> scaled copy.
  Tensor input({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor kernel({1, 1, 1, 1}, {2.0f});
  Tensor out = Conv2d(input, kernel);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_EQ(out.Data()[4], 10.0f);
}

TEST(TensorTest, Conv2dValidWindow) {
  // 2x2 ones kernel over arange image: each output is the window sum.
  Tensor input({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor kernel = Tensor::Ones({1, 1, 2, 2});
  Tensor out = Conv2d(input, kernel);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.Data()[0], 1.0f + 2 + 4 + 5);
  EXPECT_EQ(out.Data()[3], 5.0f + 6 + 8 + 9);
}

TEST(TensorTest, RowNormsAndDot) {
  Tensor a({2, 2}, {3, 4, 0, 0});
  Tensor norms = RowNorms(a);
  EXPECT_FLOAT_EQ(norms.At(0), 5.0f);
  EXPECT_FLOAT_EQ(norms.At(1), 0.0f);
  Tensor b({2, 2}, {1, 1, 1, 1});
  EXPECT_FLOAT_EQ(Dot(a, b), 7.0f);
}

TEST(TensorTest, XavierBoundsRespected) {
  Rng rng(3);
  Tensor w = Tensor::XavierUniform({64, 64}, &rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w.Data()[i]), bound + 1e-6f);
  }
}

TEST(TensorTest, UniformRangeAndDeterminism) {
  Rng rng1(42), rng2(42);
  Tensor a = Tensor::Uniform({100}, -2.0f, 3.0f, &rng1);
  Tensor b = Tensor::Uniform({100}, -2.0f, 3.0f, &rng2);
  EXPECT_TRUE(AllClose(a, b, 0.0f));
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_GE(a.Data()[i], -2.0f);
    EXPECT_LT(a.Data()[i], 3.0f);
  }
}

TEST(TensorTest, AddInPlaceAndScale) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  a.AddInPlace(b);
  EXPECT_EQ(a.At(1), 6.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_EQ(a.At(0), 2.0f);
}

TEST(TensorDeathTest, MatMulShapeMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 3});
  EXPECT_DEATH(MatMul(a, b), "MatMul inner dims");
}

TEST(TensorDeathTest, GatherOutOfRangeAborts) {
  Tensor a = Tensor::Zeros({2, 2});
  EXPECT_DEATH(GatherRows(a, {5}), "gather index");
}

TEST(TensorDeathTest, IncompatibleBroadcastAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({3, 2});
  EXPECT_DEATH(Add(a, b), "Incompatible shapes");
}

}  // namespace
}  // namespace dekg
