// Pins the fixed-lane reduction contract (tensor/lanes.h, DESIGN.md §12)
// bit for bit: every vectorized kernel is checked against a
// straightforward reference implementation of the contract, across sizes
// chosen to hit the no-block, exactly-one-block, block-plus-tail, and
// many-blocks regimes. Also asserts the properties the contract promises:
// short reductions (n <= kLanes) match strict left-to-right order, tiled
// MatMul matches the historical i-k-j kernel, parallel dispatch never
// changes a bit, and the fused multi-tensor optimizer step matches a
// scalar per-element reference. A failure here means the determinism
// contract broke — fix the kernel, do not regenerate goldens.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "gnn/message_kernels.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/lanes.h"
#include "tensor/tensor.h"
#include "tensor/tuning.h"

namespace dekg {
namespace {

using tune::kLanes;

// Sizes covering every shape of the contract: empty, scalar tail only,
// one exact block, block + 1 tail, several blocks, several blocks + odd
// tail, and a large non-round size.
std::vector<int64_t> ContractSizes() {
  return {0,          1,           kLanes - 1,     kLanes,
          kLanes + 1, 2 * kLanes,  4 * kLanes + 3, 67,
          255,        8 * kLanes + kLanes - 1};
}

Tensor RandomTensor(Shape shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), -1.5f, 1.5f, &rng);
}

// Reference implementation of the contract, written naively.
float RefLaneDotF32(const float* a, const float* c, int64_t n) {
  const int64_t blocks = n / kLanes;
  std::vector<float> acc(static_cast<size_t>(kLanes), 0.0f);
  for (int64_t b = 0; b < blocks; ++b) {
    for (int64_t l = 0; l < kLanes; ++l) {
      acc[static_cast<size_t>(l)] += a[b * kLanes + l] * c[b * kLanes + l];
    }
  }
  float total = acc[0];
  for (int64_t l = 1; l < kLanes; ++l) total += acc[static_cast<size_t>(l)];
  for (int64_t i = blocks * kLanes; i < n; ++i) total += a[i] * c[i];
  return total;
}

double RefLaneDotF64(const float* a, const float* c, int64_t n) {
  const int64_t blocks = n / kLanes;
  std::vector<double> acc(static_cast<size_t>(kLanes), 0.0);
  for (int64_t b = 0; b < blocks; ++b) {
    for (int64_t l = 0; l < kLanes; ++l) {
      acc[static_cast<size_t>(l)] +=
          static_cast<double>(a[b * kLanes + l]) * c[b * kLanes + l];
    }
  }
  double total = acc[0];
  for (int64_t l = 1; l < kLanes; ++l) total += acc[static_cast<size_t>(l)];
  for (int64_t i = blocks * kLanes; i < n; ++i) {
    total += static_cast<double>(a[i]) * c[i];
  }
  return total;
}

TEST(LaneContractTest, DotF32MatchesReferenceBitwise) {
  for (int64_t n : ContractSizes()) {
    Tensor a = RandomTensor({std::max<int64_t>(n, 1)}, 11 + n);
    Tensor c = RandomTensor({std::max<int64_t>(n, 1)}, 23 + n);
    const float got = lanes::LaneDotF32(a.Data(), c.Data(), n);
    const float want = RefLaneDotF32(a.Data(), c.Data(), n);
    EXPECT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
        << "n=" << n;
  }
}

TEST(LaneContractTest, DotF64MatchesReferenceBitwise) {
  for (int64_t n : ContractSizes()) {
    Tensor a = RandomTensor({std::max<int64_t>(n, 1)}, 31 + n);
    Tensor c = RandomTensor({std::max<int64_t>(n, 1)}, 47 + n);
    const double got = lanes::LaneDotF64(a.Data(), c.Data(), n);
    const double want = RefLaneDotF64(a.Data(), c.Data(), n);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "n=" << n;
  }
}

TEST(LaneContractTest, SumF64MatchesReferenceBitwise) {
  for (int64_t n : ContractSizes()) {
    Tensor a = RandomTensor({std::max<int64_t>(n, 1)}, 53 + n);
    Tensor ones = Tensor::Ones({std::max<int64_t>(n, 1)});
    const double got = lanes::LaneSumF64(a.Data(), n);
    // Summation is the dot against an all-ones vector element for
    // element, but spell the reference out independently.
    const int64_t blocks = n / kLanes;
    std::vector<double> acc(static_cast<size_t>(kLanes), 0.0);
    for (int64_t b = 0; b < blocks; ++b) {
      for (int64_t l = 0; l < kLanes; ++l) {
        acc[static_cast<size_t>(l)] += a.Data()[b * kLanes + l];
      }
    }
    double want = acc[0];
    for (int64_t l = 1; l < kLanes; ++l) want += acc[static_cast<size_t>(l)];
    for (int64_t i = blocks * kLanes; i < n; ++i) want += a.Data()[i];
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "n=" << n;
  }
}

// The property the golden history leans on: with no whole block, the lane
// reduction contributes an exact +0 and the contract degenerates to the
// plain sequential loop. n == kLanes also matches sequential order (one
// block, linear lane reduce).
TEST(LaneContractTest, ShortReductionsMatchSequentialBitwise) {
  for (int64_t n = 0; n <= kLanes; ++n) {
    Tensor a = RandomTensor({std::max<int64_t>(n, 1)}, 61 + n);
    Tensor c = RandomTensor({std::max<int64_t>(n, 1)}, 71 + n);
    float seq = 0.0f;
    for (int64_t i = 0; i < n; ++i) seq += a.Data()[i] * c.Data()[i];
    const float got = lanes::LaneDotF32(a.Data(), c.Data(), n);
    EXPECT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(seq))
        << "n=" << n;
  }
}

// Historical i-k-j MatMul kernel (pre-tiling), the bitwise reference for
// every n > 1 product.
Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  Tensor out(Shape{m, n});
  const float* pa = a.Data();
  const float* pb = b.Data();
  float* po = out.Data();
  for (int64_t i = 0; i < m; ++i) {
    float* out_row = po + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* b_row = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
  return out;
}

void ExpectBitEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a.Data()[i]),
              std::bit_cast<uint32_t>(b.Data()[i]))
        << what << " element " << i;
  }
}

TEST(MatMulContractTest, TiledKernelMatchesHistoricalBitwise) {
  // Sizes straddling the column tile and lane widths, plus the serial/
  // parallel dispatch threshold in both regimes; the R-GCN layer shapes
  // (layer 0's one-hot features, a hidden layer) and the single-row CLRM
  // product.
  const int64_t tile = tune::kMatMulColTile;
  struct Dims {
    int64_t m, k, n;
  };
  std::vector<Dims> dims = {{3, 5, 2},          {4, 16, tile - 1},
                            {4, 16, tile},      {4, 16, tile + 1},
                            {7, 33, 2 * tile + 3}, {64, 64, 64},
                            {1, 64, 2 * tile + 5}, {158, 6, 32},
                            {230, 32, 32},      {1, 48, 32}};
  // Every row remainder mod 4 and column remainder mod 8 of the 4x8
  // register block.
  for (int64_t m : {1, 2, 3, 5, 8, 9}) {
    for (int64_t n : {7, 8, 9, 16, 17}) dims.push_back({m, 11, n});
  }
  for (const Dims& d : dims) {
    SCOPED_TRACE(testing::Message() << "[" << d.m << ", " << d.k << "] x ["
                                    << d.k << ", " << d.n << "]");
    Tensor a = RandomTensor({d.m, d.k}, 101 + d.m + d.k);
    Tensor b = RandomTensor({d.k, d.n}, 203 + d.k + d.n);
    ExpectBitEqual(MatMul(a, b), RefMatMul(a, b), "tiled MatMul");
  }
}

TEST(MatMulContractTest, DotColumnPathFollowsLaneContract) {
  for (int64_t k : {int64_t{3}, kLanes, 4 * kLanes + 3, int64_t{67}}) {
    Tensor a = RandomTensor({5, k}, 301 + k);
    Tensor b = RandomTensor({k, 1}, 407 + k);
    Tensor out = MatMul(a, b);
    for (int64_t i = 0; i < 5; ++i) {
      const float want = RefLaneDotF32(a.Data() + i * k, b.Data(), k);
      EXPECT_EQ(std::bit_cast<uint32_t>(out.Data()[i]),
                std::bit_cast<uint32_t>(want))
          << "k=" << k << " row " << i;
    }
  }
}

TEST(MatMulContractTest, ParallelDispatchIsThreadCountInvariant) {
  // Big enough that m*k*n clears the default parallel threshold for both
  // the m > 1 row split and the m == 1 column-tile split.
  Tensor a = RandomTensor({64, 128}, 601);
  Tensor b = RandomTensor({128, 160}, 701);
  Tensor row = RandomTensor({1, 2048}, 801);
  Tensor wide = RandomTensor({2048, 1024}, 901);
  SetDefaultThreadCount(1);
  Tensor serial = MatMul(a, b);
  Tensor serial_row = MatMul(row, wide);
  SetDefaultThreadCount(4);
  Tensor parallel = MatMul(a, b);
  Tensor parallel_row = MatMul(row, wide);
  SetDefaultThreadCount(0);  // restore env-driven default
  ExpectBitEqual(serial, parallel, "MatMul m>1 threads");
  ExpectBitEqual(serial_row, parallel_row, "MatMul m==1 threads");
}

TEST(ReductionContractTest, TensorReductionsFollowLaneContract) {
  Tensor a = RandomTensor({6, 4 * kLanes + 3}, 1009);
  Tensor b = RandomTensor({6, 4 * kLanes + 3}, 1103);
  const int64_t n = a.dim(1);
  Tensor sums = SumRows(a);
  Tensor norms = RowNorms(a);
  for (int64_t i = 0; i < a.dim(0); ++i) {
    const double want_sum = lanes::LaneSumF64(a.Data() + i * n, n);
    EXPECT_EQ(std::bit_cast<uint32_t>(sums.Data()[i]),
              std::bit_cast<uint32_t>(static_cast<float>(want_sum)));
    const double want_sq = RefLaneDotF64(a.Data() + i * n, a.Data() + i * n, n);
    EXPECT_EQ(std::bit_cast<uint32_t>(norms.Data()[i]),
              std::bit_cast<uint32_t>(
                  static_cast<float>(std::sqrt(want_sq))));
  }
  const float want_dot =
      static_cast<float>(RefLaneDotF64(a.Data(), b.Data(), a.numel()));
  EXPECT_EQ(std::bit_cast<uint32_t>(Dot(a, b)),
            std::bit_cast<uint32_t>(want_dot));
}

TEST(ReductionContractTest, SegmentOpsMatchScalarReferenceBitwise) {
  Tensor a = RandomTensor({9, 2 * kLanes + 5}, 1201);
  const std::vector<int64_t> offsets = {0, 2, 3, 7, 9};
  const int64_t cols = a.dim(1);
  Tensor sum = SegmentSumRows(a, offsets);
  Tensor mean = SegmentMeanRows(a, offsets);
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    std::vector<float> ref(static_cast<size_t>(cols), 0.0f);
    for (int64_t i = offsets[g]; i < offsets[g + 1]; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        ref[static_cast<size_t>(j)] += a.Data()[i * cols + j];
      }
    }
    for (int64_t j = 0; j < cols; ++j) {
      EXPECT_EQ(std::bit_cast<uint32_t>(
                    sum.Data()[static_cast<int64_t>(g) * cols + j]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(j)]));
    }
    const float inv = 1.0f / static_cast<float>(offsets[g + 1] - offsets[g]);
    for (int64_t j = 0; j < cols; ++j) {
      EXPECT_EQ(std::bit_cast<uint32_t>(
                    mean.Data()[static_cast<int64_t>(g) * cols + j]),
                std::bit_cast<uint32_t>(ref[static_cast<size_t>(j)] * inv));
    }
  }
}

TEST(MessageKernelContractTest, FusedSweepMatchesScalarReferenceBitwise) {
  const int64_t num_nodes = 12;
  const int64_t dout = 2 * kLanes + 3;  // blocks + odd tail
  const int64_t num_bases = 3;
  const std::vector<int64_t> src = {0, 3, 3, 7, 11, 2, 5};
  const std::vector<int64_t> dst = {1, 1, 4, 0, 6, 6, 6};  // duplicates
  const int64_t m = static_cast<int64_t>(src.size());
  std::vector<Tensor> transformed;
  std::vector<Tensor> coeffs;
  std::vector<const float*> pt;
  std::vector<const float*> pc;
  for (int64_t b = 0; b < num_bases; ++b) {
    transformed.push_back(RandomTensor({num_nodes, dout}, 1301 + b));
    coeffs.push_back(RandomTensor({m}, 1409 + b));
  }
  for (int64_t b = 0; b < num_bases; ++b) {
    pt.push_back(transformed[static_cast<size_t>(b)].Data());
    pc.push_back(coeffs[static_cast<size_t>(b)].Data());
  }
  Tensor gate = RandomTensor({m}, 1511);
  const float* gate_options[] = {nullptr, gate.Data()};
  for (const float* pg : gate_options) {
    Tensor got = Tensor::Zeros({num_nodes, dout});
    gnn::FusedMessageSweep(src, dst, pt, pc, pg, dout, got.Data());
    Tensor want = Tensor::Zeros({num_nodes, dout});
    for (int64_t e = 0; e < m; ++e) {
      for (int64_t j = 0; j < dout; ++j) {
        float v = pt[0][src[static_cast<size_t>(e)] * dout + j] * pc[0][e];
        for (int64_t b = 1; b < num_bases; ++b) {
          v += pt[static_cast<size_t>(b)][src[static_cast<size_t>(e)] * dout + j] *
               pc[static_cast<size_t>(b)][e];
        }
        if (pg != nullptr) v *= pg[e];
        want.Data()[dst[static_cast<size_t>(e)] * dout + j] += v;
      }
    }
    ExpectBitEqual(got, want, pg != nullptr ? "gated sweep" : "ungated sweep");
  }
}

TEST(MessageKernelContractTest, AttentionLogitsMatchMatMulOfConcat) {
  const int64_t num_nodes = 10;
  const int64_t din = kLanes + 3;
  const int64_t att_dim = 4;
  const std::vector<int64_t> src = {0, 2, 9, 4};
  const std::vector<int64_t> dst = {1, 1, 3, 8};
  const std::vector<int64_t> rel = {0, 2, 1, 2};
  const std::vector<int64_t> tgt = {1, 1, 0, 0};
  const int64_t m = static_cast<int64_t>(src.size());
  Tensor h = RandomTensor({num_nodes, din}, 1601);
  Tensor rel_emb = RandomTensor({3, att_dim}, 1709);
  Tensor tgt_emb = RandomTensor({2, att_dim}, 1801);
  Tensor w = RandomTensor({2 * din + 2 * att_dim, 1}, 1901);
  const float bias = 0.125f;
  Tensor logits(Shape{m, 1});
  gnn::FusedAttentionLogits(src, dst, rel, tgt, h.Data(), din, rel_emb.Data(),
                            tgt_emb.Data(), att_dim, w.Data(), bias,
                            logits.Data());
  // The autograd formulation: concat the four gathers, MatMul by w.
  Tensor concat = Concat({GatherRows(h, src), GatherRows(h, dst),
                          GatherRows(rel_emb, rel), GatherRows(tgt_emb, tgt)},
                         /*axis=*/1);
  Tensor ref = MatMul(concat, w);
  for (int64_t e = 0; e < m; ++e) {
    EXPECT_EQ(std::bit_cast<uint32_t>(logits.Data()[e]),
              std::bit_cast<uint32_t>(ref.Data()[e] + bias));
  }
}

// A module with one rank-2 "embedding" and one rank-1 bias, for fused
// optimizer checks.
class TwoParamModule : public nn::Module {
 public:
  explicit TwoParamModule(uint64_t seed) {
    Rng rng(seed);
    table = RegisterParameter(
        "table", Tensor::Uniform({12, 2 * kLanes + 3}, -1, 1, &rng));
    bias = RegisterParameter("bias", Tensor::Uniform({5}, -1, 1, &rng));
  }
  ag::Var table;
  ag::Var bias;
};

void SeedGrads(TwoParamModule* mod, uint64_t seed, bool sparse_rows) {
  Rng rng(seed);
  Tensor gt = Tensor::Zeros(mod->table.value().shape());
  for (int64_t r = 0; r < gt.dim(0); ++r) {
    if (sparse_rows && !rng.Bernoulli(0.4f)) continue;
    for (int64_t j = 0; j < gt.dim(1); ++j) {
      gt.At(r, j) = static_cast<float>(rng.UniformDouble(-0.5, 0.5));
    }
  }
  mod->table.impl()->AccumulateGrad(gt);
  Tensor gb = Tensor::Uniform(mod->bias.value().shape(), -0.5f, 0.5f, &rng);
  mod->bias.impl()->AccumulateGrad(gb);
}

// Scalar reference for one optimizer step applied to raw copies of the
// parameter/state tensors, spelled exactly like the historical
// per-parameter loops.
void RefAdamStep(Tensor* w, const Tensor& g, Tensor* m, Tensor* v,
                 const nn::Adam::Options& o, int64_t t) {
  const float b1 = static_cast<float>(o.beta1);
  const float b2 = static_cast<float>(o.beta2);
  const float eps = static_cast<float>(o.eps);
  const float wd = static_cast<float>(o.weight_decay);
  const double bias1 = 1.0 - std::pow(o.beta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(o.beta2, static_cast<double>(t));
  const float lr_t = static_cast<float>(o.lr * std::sqrt(bias2) / bias1);
  for (int64_t j = 0; j < w->numel(); ++j) {
    const float gj = g.Data()[j] + wd * w->Data()[j];
    m->Data()[j] = b1 * m->Data()[j] + (1.0f - b1) * gj;
    v->Data()[j] = b2 * v->Data()[j] + (1.0f - b2) * gj * gj;
    w->Data()[j] -= lr_t * m->Data()[j] / (std::sqrt(v->Data()[j]) + eps);
  }
}

TEST(FusedOptimizerContractTest, AdamMatchesScalarReferenceBitwise) {
  TwoParamModule mod(2027);
  nn::Adam::Options opt;
  opt.lr = 0.01;
  nn::Adam adam(&mod, opt);

  Tensor ref_w_table = mod.table.value().Clone();
  Tensor ref_w_bias = mod.bias.value().Clone();
  Tensor ref_m_table = Tensor::Zeros(ref_w_table.shape());
  Tensor ref_v_table = Tensor::Zeros(ref_w_table.shape());
  Tensor ref_m_bias = Tensor::Zeros(ref_w_bias.shape());
  Tensor ref_v_bias = Tensor::Zeros(ref_w_bias.shape());

  for (int64_t step = 1; step <= 4; ++step) {
    mod.ZeroGrad();
    // Alternate sparse-gradient and dense-gradient steps.
    SeedGrads(&mod, 3001 + static_cast<uint64_t>(step),
              /*sparse_rows=*/step % 2 == 0);
    RefAdamStep(&ref_w_table, mod.table.grad(), &ref_m_table, &ref_v_table,
                opt, step);
    RefAdamStep(&ref_w_bias, mod.bias.grad(), &ref_m_bias, &ref_v_bias, opt,
                step);
    adam.SparseStep();
    ExpectBitEqual(mod.table.value(), ref_w_table, "adam table");
    ExpectBitEqual(mod.bias.value(), ref_w_bias, "adam bias");
  }
}

// Bit-level fingerprint over a battery of kernel outputs. Running this
// binary from builds at different optimization levels and diffing the
// emitted file (DEKG_KERNEL_FINGERPRINT=<path>) proves -O0/-O3 bitwise
// invariance — scripts/sanitize_check.sh wires that up.
TEST(KernelFingerprintTest, EmitsStableFingerprint) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&hash](const float* p, int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      hash ^= std::bit_cast<uint32_t>(p[i]);
      hash *= 1099511628211ull;
    }
  };
  Tensor a = RandomTensor({33, 67}, 5001);
  Tensor b = RandomTensor({67, 41}, 5003);
  Tensor col = RandomTensor({67, 1}, 5007);
  Tensor mm = MatMul(a, b);
  mix(mm.Data(), mm.numel());
  Tensor dotcol = MatMul(a, col);
  mix(dotcol.Data(), dotcol.numel());
  Tensor sums = SumRows(a);
  mix(sums.Data(), sums.numel());
  Tensor norms = RowNorms(a);
  mix(norms.Data(), norms.numel());
  const float d = Dot(b, RandomTensor({67, 41}, 5011));
  mix(&d, 1);
  TwoParamModule mod(5013);
  nn::Adam::Options opt;
  opt.lr = 0.01;
  nn::Adam adam(&mod, opt);
  for (int64_t step = 1; step <= 2; ++step) {
    mod.ZeroGrad();
    SeedGrads(&mod, 5017 + static_cast<uint64_t>(step), step == 2);
    adam.Step();
  }
  mix(mod.table.value().Data(), mod.table.value().numel());
  {
    // The R-GCN layer backward's message kernels: lane blocks plus tails
    // (dout, din, m all off the lane width), duplicate endpoints.
    const int64_t num_nodes = 9;
    const int64_t dout = kLanes + 3;
    const int64_t din = kLanes + 1;
    const int64_t att_dim = 3;
    const std::vector<int64_t> src = {0, 3, 3, 7, 8, 2, 5, 1, 4, 6, 0};
    const std::vector<int64_t> dst = {1, 1, 4, 0, 6, 6, 6, 2, 2, 5, 7};
    const std::vector<int64_t> rel = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1};
    const std::vector<int64_t> tgt(src.size(), 1);
    const int64_t m = static_cast<int64_t>(src.size());
    std::vector<Tensor> transformed, coeffs, d_transformed, d_coeffs;
    std::vector<const float*> pt, pc;
    std::vector<float*> pdt, pdc;
    for (int64_t b = 0; b < 3; ++b) {
      transformed.push_back(
          RandomTensor({num_nodes, dout}, 5101 + static_cast<uint64_t>(b)));
      coeffs.push_back(RandomTensor({m}, 5111 + static_cast<uint64_t>(b)));
      d_transformed.push_back(Tensor::Zeros({num_nodes, dout}));
      d_coeffs.push_back(Tensor::Zeros({m}));
    }
    for (size_t b = 0; b < transformed.size(); ++b) {
      pt.push_back(transformed[b].Data());
      pc.push_back(coeffs[b].Data());
      pdt.push_back(d_transformed[b].Data());
      pdc.push_back(d_coeffs[b].Data());
    }
    Tensor gate = RandomTensor({m}, 5121);
    Tensor out_grad = RandomTensor({num_nodes, dout}, 5123);
    Tensor gate_grad = Tensor::Zeros({m});
    gnn::FusedMessageSweepBackward(src, dst, pt, pc, gate.Data(),
                                   out_grad.Data(), dout, pdt, pdc,
                                   gate_grad.Data());
    for (size_t b = 0; b < transformed.size(); ++b) {
      mix(d_transformed[b].Data(), d_transformed[b].numel());
      mix(d_coeffs[b].Data(), d_coeffs[b].numel());
    }
    mix(gate_grad.Data(), gate_grad.numel());
    Tensor h = RandomTensor({num_nodes, din}, 5131);
    Tensor rel_emb = RandomTensor({3, att_dim}, 5133);
    Tensor tgt_emb = RandomTensor({2, att_dim}, 5137);
    Tensor w = RandomTensor({2 * din + 2 * att_dim, 1}, 5139);
    Tensor logit_grad = RandomTensor({m}, 5141);
    Tensor h_src_grad = Tensor::Zeros({num_nodes, din});
    Tensor h_dst_grad = Tensor::Zeros({num_nodes, din});
    Tensor rel_grad = Tensor::Zeros({3, att_dim});
    Tensor tgt_grad = Tensor::Zeros({2, att_dim});
    Tensor w_grad(w.shape());
    gnn::FusedAttentionLogitsBackward(
        src, dst, rel, tgt, h.Data(), din, rel_emb.Data(), tgt_emb.Data(),
        att_dim, w.Data(), logit_grad.Data(), h_src_grad.Data(),
        h_dst_grad.Data(), rel_grad.Data(), tgt_grad.Data(), w_grad.Data());
    for (const Tensor* t :
         {&h_src_grad, &h_dst_grad, &rel_grad, &tgt_grad, &w_grad}) {
      mix(t->Data(), t->numel());
    }
  }

  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx\n",
                static_cast<unsigned long long>(hash));
  RecordProperty("fingerprint", buf);
  const char* path = std::getenv("DEKG_KERNEL_FINGERPRINT");
  if (path != nullptr && *path != '\0') {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(buf, f);
    std::fclose(f);
  }
  SUCCEED() << "kernel fingerprint " << buf;
}

}  // namespace
}  // namespace dekg
