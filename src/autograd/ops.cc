#include "autograd/ops.h"

#include <cmath>

namespace dekg::ag {

namespace {

using internal::MakeNode;
using internal::VarImpl;

// Accumulates g into parent i of node, reducing over broadcast dimensions if
// the forward op broadcast parent's value against a larger output.
void AccumulateBroadcastAware(VarImpl* node, size_t parent_index,
                              const Tensor& g) {
  VarImpl* parent = node->parents[parent_index].get();
  if (!parent->requires_grad) return;
  const Tensor& pv = parent->value;
  if (pv.SameShape(g)) {
    parent->AccumulateGrad(g);
    return;
  }
  if (pv.numel() == 1) {
    parent->AccumulateGrad(Tensor(pv.shape(), {SumAll(g)}));
    return;
  }
  // Row-vector [n] broadcast against [m, n].
  if (pv.rank() == 1 && g.rank() == 2 && g.dim(1) == pv.dim(0)) {
    parent->AccumulateGrad(SumCols(g));
    return;
  }
  DEKG_FATAL() << "Unsupported broadcast reduction: parent "
               << ShapeToString(pv.shape()) << " grad "
               << ShapeToString(g.shape());
}

// Straight accumulation; parent shape must match g.
void Accumulate(VarImpl* node, size_t parent_index, const Tensor& g) {
  VarImpl* parent = node->parents[parent_index].get();
  if (!parent->requires_grad) return;
  parent->AccumulateGrad(g);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  return MakeNode(dekg::Add(a.value(), b.value()), {a, b}, [](VarImpl* n) {
    AccumulateBroadcastAware(n, 0, n->grad);
    AccumulateBroadcastAware(n, 1, n->grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeNode(dekg::Sub(a.value(), b.value()), {a, b}, [](VarImpl* n) {
    AccumulateBroadcastAware(n, 0, n->grad);
    AccumulateBroadcastAware(n, 1, dekg::Neg(n->grad));
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeNode(dekg::Mul(a.value(), b.value()), {a, b}, [](VarImpl* n) {
    const Tensor& av = n->parents[0]->value;
    const Tensor& bv = n->parents[1]->value;
    AccumulateBroadcastAware(n, 0, dekg::Mul(n->grad, bv));
    AccumulateBroadcastAware(n, 1, dekg::Mul(n->grad, av));
  });
}

Var AddScalar(const Var& a, float s) {
  return Add(a, Var::Constant(Tensor::Scalar(s)));
}

Var MulScalar(const Var& a, float s) {
  return Mul(a, Var::Constant(Tensor::Scalar(s)));
}

Var Neg(const Var& a) {
  return MakeNode(dekg::Neg(a.value()), {a}, [](VarImpl* n) {
    Accumulate(n, 0, dekg::Neg(n->grad));
  });
}

Var Relu(const Var& a) {
  return MakeNode(dekg::Relu(a.value()), {a}, [](VarImpl* n) {
    const Tensor& av = n->parents[0]->value;
    Tensor g(n->grad.shape());
    const float* pa = av.Data();
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < g.numel(); ++i) po[i] = pa[i] > 0.0f ? pg[i] : 0.0f;
    Accumulate(n, 0, g);
  });
}

Var Sigmoid(const Var& a) {
  Tensor y = dekg::Sigmoid(a.value());
  return MakeNode(y, {a}, [y](VarImpl* n) {
    // dy/dx = y (1 - y)
    Tensor g(n->grad.shape());
    const float* py = y.Data();
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < g.numel(); ++i) po[i] = pg[i] * py[i] * (1.0f - py[i]);
    Accumulate(n, 0, g);
  });
}

Var Tanh(const Var& a) {
  Tensor y = dekg::Tanh(a.value());
  return MakeNode(y, {a}, [y](VarImpl* n) {
    Tensor g(n->grad.shape());
    const float* py = y.Data();
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < g.numel(); ++i) po[i] = pg[i] * (1.0f - py[i] * py[i]);
    Accumulate(n, 0, g);
  });
}

Var Log(const Var& a) {
  return MakeNode(dekg::Log(a.value()), {a}, [](VarImpl* n) {
    const Tensor& av = n->parents[0]->value;
    Tensor g(n->grad.shape());
    const float* pa = av.Data();
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < g.numel(); ++i) {
      po[i] = pg[i] / std::max(pa[i], kLogEps);
    }
    Accumulate(n, 0, g);
  });
}

Var Sqrt(const Var& a) {
  Tensor y = dekg::Sqrt(a.value());
  return MakeNode(y, {a}, [y](VarImpl* n) {
    Tensor g(n->grad.shape());
    const float* py = y.Data();
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < g.numel(); ++i) {
      po[i] = pg[i] * 0.5f / std::max(py[i], 1e-12f);
    }
    Accumulate(n, 0, g);
  });
}

namespace {
template <typename FwdF, typename GradF>
Var PointwiseOp(const Var& a, FwdF fwd, GradF grad_from_input) {
  Tensor out(a.value().shape());
  {
    const float* pa = a.value().Data();
    float* po = out.Data();
    for (int64_t i = 0; i < out.numel(); ++i) po[i] = fwd(pa[i]);
  }
  return MakeNode(std::move(out), {a}, [grad_from_input](VarImpl* n) {
    const Tensor& av = n->parents[0]->value;
    Tensor g(n->grad.shape());
    const float* pa = av.Data();
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < g.numel(); ++i) po[i] = pg[i] * grad_from_input(pa[i]);
    Accumulate(n, 0, g);
  });
}
}  // namespace

Var Cos(const Var& a) {
  return PointwiseOp(
      a, [](float x) { return std::cos(x); },
      [](float x) { return -std::sin(x); });
}

Var Sin(const Var& a) {
  return PointwiseOp(
      a, [](float x) { return std::sin(x); },
      [](float x) { return std::cos(x); });
}

Var Square(const Var& a) {
  return MakeNode(dekg::Square(a.value()), {a}, [](VarImpl* n) {
    const Tensor& av = n->parents[0]->value;
    Tensor g = dekg::Mul(n->grad, av);
    g.ScaleInPlace(2.0f);
    Accumulate(n, 0, g);
  });
}

Var MatMul(const Var& a, const Var& b) {
  return MakeNode(dekg::MatMul(a.value(), b.value()), {a, b}, [](VarImpl* n) {
    const Tensor& av = n->parents[0]->value;
    const Tensor& bv = n->parents[1]->value;
    // dA = G * B^T ; dB = A^T * G
    if (n->parents[0]->requires_grad) {
      Accumulate(n, 0, dekg::MatMul(n->grad, dekg::Transpose(bv)));
    }
    if (n->parents[1]->requires_grad) {
      Accumulate(n, 1, dekg::MatMul(dekg::Transpose(av), n->grad));
    }
  });
}

Var SumAll(const Var& a) {
  return MakeNode(Tensor::Scalar(dekg::SumAll(a.value())), {a},
                  [](VarImpl* n) {
                    const float g = n->grad.Data()[0];
                    Accumulate(n, 0,
                               Tensor::Full(n->parents[0]->value.shape(), g));
                  });
}

Var SumRows(const Var& a) {
  DEKG_CHECK_EQ(a.value().rank(), 2u);
  return MakeNode(dekg::SumRows(a.value()), {a}, [](VarImpl* n) {
    const int64_t m = n->parents[0]->value.dim(0);
    const int64_t cols = n->parents[0]->value.dim(1);
    Tensor g(Shape{m, cols});
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < cols; ++j) po[i * cols + j] = pg[i];
    }
    Accumulate(n, 0, g);
  });
}

Var MeanOverRows(const Var& a) {
  DEKG_CHECK_EQ(a.value().rank(), 2u);
  const int64_t m = a.value().dim(0);
  DEKG_CHECK_GT(m, 0);
  Tensor fwd = dekg::SumCols(a.value());
  fwd.ScaleInPlace(1.0f / static_cast<float>(m));
  return MakeNode(fwd, {a}, [m](VarImpl* n) {
    const int64_t cols = n->grad.dim(0);
    Tensor g(Shape{m, cols});
    const float inv = 1.0f / static_cast<float>(m);
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < cols; ++j) po[i * cols + j] = pg[j] * inv;
    }
    Accumulate(n, 0, g);
  });
}

Var SoftmaxRows(const Var& a) {
  Tensor y = dekg::SoftmaxRows(a.value());
  return MakeNode(y, {a}, [y](VarImpl* n) {
    // dx_ij = y_ij * (g_ij - sum_k g_ik y_ik)
    const int64_t m = y.dim(0);
    const int64_t cols = y.dim(1);
    Tensor g(y.shape());
    const float* py = y.Data();
    const float* pg = n->grad.Data();
    float* po = g.Data();
    for (int64_t i = 0; i < m; ++i) {
      double dot = 0.0;
      for (int64_t j = 0; j < cols; ++j) {
        dot += static_cast<double>(pg[i * cols + j]) * py[i * cols + j];
      }
      for (int64_t j = 0; j < cols; ++j) {
        po[i * cols + j] =
            py[i * cols + j] * (pg[i * cols + j] - static_cast<float>(dot));
      }
    }
    Accumulate(n, 0, g);
  });
}

Var GatherRows(const Var& rows, const std::vector<int64_t>& indices) {
  Tensor fwd = dekg::GatherRows(rows.value(), indices);
  // The backward closure owns a copy of the index list; a tape-free
  // gather (e.g. Neural LP inference) must not pay for it.
  if (!rows.requires_grad()) return MakeNode(std::move(fwd), {rows}, nullptr);
  return MakeNode(std::move(fwd), {rows}, [indices](VarImpl* n) {
    Tensor g = Tensor::Zeros(n->parents[0]->value.shape());
    dekg::ScatterAddRows(&g, indices, n->grad);
    Accumulate(n, 0, g);
  });
}

Var ScatterSumRows(const Var& updates, const std::vector<int64_t>& indices,
                   int64_t num_rows) {
  DEKG_CHECK_EQ(updates.value().rank(), 2u);
  Tensor fwd = Tensor::Zeros(Shape{num_rows, updates.value().dim(1)});
  dekg::ScatterAddRows(&fwd, indices, updates.value());
  if (!updates.requires_grad()) {
    return MakeNode(std::move(fwd), {updates}, nullptr);
  }
  return MakeNode(std::move(fwd), {updates}, [indices](VarImpl* n) {
    Accumulate(n, 0, dekg::GatherRows(n->grad, indices));
  });
}

Var ScaleRows(const Var& a, const Var& s) {
  DEKG_CHECK_EQ(a.value().rank(), 2u);
  const int64_t m = a.value().dim(0);
  DEKG_CHECK_EQ(s.value().numel(), m);
  Tensor fwd(a.value().shape());
  const int64_t cols = a.value().dim(1);
  {
    const float* pa = a.value().Data();
    const float* ps = s.value().Data();
    float* po = fwd.Data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < cols; ++j) po[i * cols + j] = pa[i * cols + j] * ps[i];
    }
  }
  return MakeNode(std::move(fwd), {a, s}, [m, cols](VarImpl* n) {
    const Tensor& av = n->parents[0]->value;
    const Tensor& sv = n->parents[1]->value;
    const float* pg = n->grad.Data();
    if (n->parents[0]->requires_grad) {
      Tensor ga(av.shape());
      const float* ps = sv.Data();
      float* po = ga.Data();
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < cols; ++j) po[i * cols + j] = pg[i * cols + j] * ps[i];
      }
      n->parents[0]->AccumulateGrad(ga);
    }
    if (n->parents[1]->requires_grad) {
      Tensor gs(sv.shape());
      const float* pa = av.Data();
      float* po = gs.Data();
      for (int64_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (int64_t j = 0; j < cols; ++j) {
          acc += static_cast<double>(pg[i * cols + j]) * pa[i * cols + j];
        }
        po[i] = static_cast<float>(acc);
      }
      n->parents[1]->AccumulateGrad(gs);
    }
  });
}

Var Concat(const std::vector<Var>& parts, int axis) {
  DEKG_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p.value());
  Tensor fwd = dekg::Concat(values, axis);
  return MakeNode(fwd, parts, [axis](VarImpl* n) {
    if (axis == 0 || n->parents[0]->value.rank() == 1) {
      // Rank-1 concat, or rank-2 row concat: contiguous blocks.
      int64_t offset = 0;
      const float* pg = n->grad.Data();
      for (auto& parent : n->parents) {
        const int64_t cnt = parent->value.numel();
        if (parent->requires_grad) {
          Tensor g(parent->value.shape());
          std::copy(pg + offset, pg + offset + cnt, g.Data());
          parent->AccumulateGrad(g);
        }
        offset += cnt;
      }
      return;
    }
    // axis == 1 on rank-2 tensors.
    const int64_t m = n->grad.dim(0);
    const int64_t total_cols = n->grad.dim(1);
    int64_t col_off = 0;
    const float* pg = n->grad.Data();
    for (auto& parent : n->parents) {
      const int64_t pc = parent->value.dim(1);
      if (parent->requires_grad) {
        Tensor g(parent->value.shape());
        float* po = g.Data();
        for (int64_t i = 0; i < m; ++i) {
          std::copy(pg + i * total_cols + col_off,
                    pg + i * total_cols + col_off + pc, po + i * pc);
        }
        parent->AccumulateGrad(g);
      }
      col_off += pc;
    }
  });
}

Var SliceRows(const Var& a, int64_t begin, int64_t end) {
  return MakeNode(dekg::SliceRows(a.value(), begin, end), {a},
                  [begin](VarImpl* n) {
                    if (!n->parents[0]->requires_grad) return;
                    Tensor g = Tensor::Zeros(n->parents[0]->value.shape());
                    const int64_t cols = g.dim(1);
                    const float* pg = n->grad.Data();
                    std::copy(pg, pg + n->grad.numel(),
                              g.Data() + begin * cols);
                    Accumulate(n, 0, g);
                  });
}

Var Reshape(const Var& a, Shape new_shape) {
  Shape old_shape = a.value().shape();
  return MakeNode(a.value().Reshape(std::move(new_shape)).Clone(), {a},
                  [old_shape](VarImpl* n) {
                    Accumulate(n, 0, n->grad.Reshape(old_shape));
                  });
}

Var Conv2d(const Var& input, const Var& kernel) {
  Tensor fwd = dekg::Conv2d(input.value(), kernel.value());
  return MakeNode(fwd, {input, kernel}, [](VarImpl* n) {
    const Tensor& in = n->parents[0]->value;
    const Tensor& ker = n->parents[1]->value;
    const Tensor& g = n->grad;
    const int64_t batch = in.dim(0), in_ch = in.dim(1), h = in.dim(2),
                  w = in.dim(3);
    const int64_t out_ch = ker.dim(0), kh = ker.dim(2), kw = ker.dim(3);
    const int64_t oh = g.dim(2), ow = g.dim(3);
    if (n->parents[0]->requires_grad) {
      Tensor gi = Tensor::Zeros(in.shape());
      const float* pk = ker.Data();
      const float* pg = g.Data();
      float* po = gi.Data();
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t oc = 0; oc < out_ch; ++oc) {
          for (int64_t y = 0; y < oh; ++y) {
            for (int64_t x = 0; x < ow; ++x) {
              const float gv = pg[((b * out_ch + oc) * oh + y) * ow + x];
              if (gv == 0.0f) continue;
              for (int64_t ic = 0; ic < in_ch; ++ic) {
                for (int64_t dy = 0; dy < kh; ++dy) {
                  float* in_row = po + ((b * in_ch + ic) * h + (y + dy)) * w + x;
                  const float* k_row = pk + ((oc * in_ch + ic) * kh + dy) * kw;
                  for (int64_t dx = 0; dx < kw; ++dx) in_row[dx] += gv * k_row[dx];
                }
              }
            }
          }
        }
      }
      n->parents[0]->AccumulateGrad(gi);
    }
    if (n->parents[1]->requires_grad) {
      Tensor gk = Tensor::Zeros(ker.shape());
      const float* pi = in.Data();
      const float* pg = g.Data();
      float* po = gk.Data();
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t oc = 0; oc < out_ch; ++oc) {
          for (int64_t y = 0; y < oh; ++y) {
            for (int64_t x = 0; x < ow; ++x) {
              const float gv = pg[((b * out_ch + oc) * oh + y) * ow + x];
              if (gv == 0.0f) continue;
              for (int64_t ic = 0; ic < in_ch; ++ic) {
                for (int64_t dy = 0; dy < kh; ++dy) {
                  const float* in_row =
                      pi + ((b * in_ch + ic) * h + (y + dy)) * w + x;
                  float* k_row = po + ((oc * in_ch + ic) * kh + dy) * kw;
                  for (int64_t dx = 0; dx < kw; ++dx) k_row[dx] += gv * in_row[dx];
                }
              }
            }
          }
        }
      }
      n->parents[1]->AccumulateGrad(gk);
    }
  });
}

}  // namespace dekg::ag
