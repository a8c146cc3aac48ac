// SIMD kernel throughput (DESIGN.md §12): the lane-vectorized tensor
// kernels, the fused RGCN message sweep, and the fused multi-tensor
// optimizer step, each timed against a bench-local copy of the historical
// scalar kernel it replaced, plus end-to-end packed score-batch and
// train-step timings across thread counts. Every point is gated on
// bitwise identity — order-preserving kernels against the historical
// loops, contract-changing kernels (the n == 1 MatMul dot column) against
// the fixed-lane reference, end-to-end runs across thread counts — and,
// as in bench_parallel / bench_gsm_batch, only an identity failure flips
// the exit code; speedups are machine-dependent and reported only.
//
// Results land in BENCH_simd.json in the working directory.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "bench/experiment.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/gsm.h"
#include "gnn/message_kernels.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/lanes.h"
#include "tensor/tensor.h"
#include "tensor/tuning.h"

namespace dekg::bench {
namespace {

int BenchThreads() {
  if (const char* env = std::getenv("DEKG_BENCH_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(4, static_cast<int>(hw));
}

// Best-of-k wall time of fn(), in seconds.
template <typename F>
double TimeBest(int repetitions, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::bit_cast<uint32_t>(a.Data()[i]) !=
        std::bit_cast<uint32_t>(b.Data()[i])) {
      return false;
    }
  }
  return true;
}

Tensor RandomTensor(Shape shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), -1.0f, 1.0f, &rng);
}

// ----- Historical scalar kernels (pre-SIMD), kept verbatim as the
// speedup baselines and (where order-preserving) bitwise references -----

Tensor OldMatMul(const Tensor& a, const Tensor& b) {
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

// Fixed-lane contract reference for the n == 1 dot column (the order the
// new MatMul path is *specified* to produce; the historical sequential
// kernel is timed as the baseline but is not the bitwise reference).
float ContractDot(const float* a, const float* c, int64_t n) {
  const int64_t lanes = tune::kLanes;
  const int64_t blocks = n / lanes;
  std::vector<float> acc(static_cast<size_t>(lanes), 0.0f);
  for (int64_t b = 0; b < blocks; ++b) {
    for (int64_t l = 0; l < lanes; ++l) {
      acc[static_cast<size_t>(l)] += a[b * lanes + l] * c[b * lanes + l];
    }
  }
  float total = acc[0];
  for (int64_t l = 1; l < lanes; ++l) total += acc[static_cast<size_t>(l)];
  for (int64_t i = blocks * lanes; i < n; ++i) total += a[i] * c[i];
  return total;
}

void OldSweep(const std::vector<int64_t>& src, const std::vector<int64_t>& dst,
              const std::vector<const float*>& pt,
              const std::vector<const float*>& pc, const float* pgate,
              int64_t dout, float* pagg) {
  const int64_t m = static_cast<int64_t>(src.size());
  const int64_t num_bases = static_cast<int64_t>(pt.size());
  for (int64_t e = 0; e < m; ++e) {
    const int64_t s = src[static_cast<size_t>(e)];
    const int64_t d = dst[static_cast<size_t>(e)];
    const float* t0 = pt[0] + s * dout;
    float* out_row = pagg + d * dout;
    const float ge = pgate != nullptr ? pgate[e] : 1.0f;
    for (int64_t j = 0; j < dout; ++j) {
      float v = t0[j] * pc[0][e];
      for (int64_t b = 1; b < num_bases; ++b) {
        v += pt[static_cast<size_t>(b)][s * dout + j] *
             pc[static_cast<size_t>(b)][e];
      }
      if (pgate != nullptr) v = v * ge;
      out_row[j] += v;
    }
  }
}

// Historical per-parameter dense Adam loop, applied to raw tensors. Kept
// verbatim — including the unconditional weight-decay term — so it is
// both the bitwise reference and a fair timing baseline.
void OldAdamDense(float* w, const float* g, float* m, float* v, int64_t n,
                  float b1, float b2, float eps, float wd, float lr_t) {
  for (int64_t j = 0; j < n; ++j) {
    const float gj = g[j] + wd * w[j];
    m[j] = b1 * m[j] + (1.0f - b1) * gj;
    v[j] = b2 * v[j] + (1.0f - b2) * gj * gj;
    w[j] -= lr_t * m[j] / (std::sqrt(v[j]) + eps);
  }
}

// Embedding-heavy module shaped like the KGE baselines (entity table +
// relation table + a dense head), for the fused optimizer bench.
class OptimBenchModule : public nn::Module {
 public:
  explicit OptimBenchModule(uint64_t seed) {
    Rng rng(seed);
    entities = RegisterParameter("entities",
                                 Tensor::Uniform({20000, 64}, -1, 1, &rng));
    relations = RegisterParameter("relations",
                                  Tensor::Uniform({64, 64}, -1, 1, &rng));
    head = RegisterParameter("head", Tensor::Uniform({256, 64}, -1, 1, &rng));
    bias = RegisterParameter("bias", Tensor::Uniform({64}, -1, 1, &rng));
  }
  ag::Var entities;
  ag::Var relations;
  ag::Var head;
  ag::Var bias;
};

void SeedOptimGrads(OptimBenchModule* mod, uint64_t seed, bool sparse) {
  Rng rng(seed);
  Tensor ge = Tensor::Zeros(mod->entities.value().shape());
  for (int64_t r = 0; r < ge.dim(0); ++r) {
    if (sparse && !rng.Bernoulli(0.05)) continue;
    for (int64_t j = 0; j < ge.dim(1); ++j) {
      ge.At(r, j) = static_cast<float>(rng.UniformDouble(-0.1, 0.1));
    }
  }
  mod->entities.impl()->AccumulateGrad(ge);
  mod->relations.impl()->AccumulateGrad(
      RandomTensor(mod->relations.value().shape(), seed + 1));
  mod->head.impl()->AccumulateGrad(
      RandomTensor(mod->head.value().shape(), seed + 2));
  mod->bias.impl()->AccumulateGrad(
      RandomTensor(mod->bias.value().shape(), seed + 3));
}

struct KernelPoint {
  std::string name;
  double seconds_old = 0.0;
  double seconds_new = 0.0;
  double speedup = 0.0;
  double gflops = 0.0;  // of the new kernel
  bool identical = false;
};

}  // namespace
}  // namespace dekg::bench

int main() {
  using namespace dekg;
  using namespace dekg::bench;
  SetMinLogSeverity(LogSeverity::kWarning);

  const int threads = BenchThreads();
  std::printf("bench_simd: lanes=%lld, col_tile=%lld, threads sweep {1, %d}\n",
              static_cast<long long>(tune::kLanes),
              static_cast<long long>(tune::kMatMulColTile), threads);
  // Kernel micro-benches run serial: the SIMD win must not hide behind
  // the pool.
  SetDefaultThreadCount(1);

  std::vector<KernelPoint> kernels;

  // -- Dense MatMul, the R-GCN basis-transform shapes (nodes x hidden @
  // hidden x hidden, and layer 0's nodes x one-hot features @ features x
  // hidden), a larger square, and the single-row CLRM product the serve
  // snapshot computes once per entity at start-up. Order-preserving:
  // bitwise vs the historical kernel.
  {
    struct Dims {
      const char* name;
      int64_t m, k, n;
    };
    const Dims dims[] = {{"matmul_dense_512x32x32", 512, 32, 32},
                         {"matmul_dense_256x6x32", 256, 6, 32},
                         {"matmul_dense_256x64x64", 256, 64, 64},
                         {"matmul_dense_128x128x128", 128, 128, 128},
                         {"matmul_dense_1x48x32", 1, 48, 32}};
    for (const Dims& d : dims) {
      Tensor a = RandomTensor({d.m, d.k}, 11);
      Tensor b = RandomTensor({d.k, d.n}, 13);
      KernelPoint p;
      p.name = d.name;
      p.identical = BitEqual(MatMul(a, b), OldMatMul(a, b));
      p.seconds_old = TimeBest(5, [&] { OldMatMul(a, b); });
      p.seconds_new = TimeBest(5, [&] { MatMul(a, b); });
      p.speedup = p.seconds_old / p.seconds_new;
      p.gflops = 2.0 * static_cast<double>(d.m * d.k * d.n) / p.seconds_new /
                 1e9;
      kernels.push_back(p);
    }
  }

  // -- Dot-column MatMul ([m, k] x [k, 1]), the attention-logit shape.
  // Contract-changing: bitwise vs the fixed-lane reference, timed vs the
  // historical sequential kernel.
  {
    const int64_t m = 4096, k = 128;
    Tensor a = RandomTensor({m, k}, 17);
    Tensor b = RandomTensor({k, 1}, 19);
    KernelPoint p;
    p.name = "matmul_dot_column_4096x128x1";
    Tensor out = MatMul(a, b);
    p.identical = true;
    for (int64_t i = 0; i < m; ++i) {
      if (std::bit_cast<uint32_t>(out.Data()[i]) !=
          std::bit_cast<uint32_t>(ContractDot(a.Data() + i * k, b.Data(), k))) {
        p.identical = false;
        break;
      }
    }
    p.seconds_old = TimeBest(5, [&] { OldMatMul(a, b); });
    p.seconds_new = TimeBest(5, [&] { MatMul(a, b); });
    p.speedup = p.seconds_old / p.seconds_new;
    p.gflops = 2.0 * static_cast<double>(m * k) / p.seconds_new / 1e9;
    kernels.push_back(p);
  }

  // -- Fused message sweep, the ForwardBatch hot loop: 20k messages over
  // 2k nodes, hidden 32, 4 bases, gated. Order-preserving: bitwise vs the
  // historical scalar sweep.
  {
    const int64_t num_nodes = 2048, dout = 32, num_bases = 4, m = 20000;
    Rng rng(31);
    std::vector<int64_t> src, dst;
    for (int64_t e = 0; e < m; ++e) {
      src.push_back(static_cast<int64_t>(
          rng.UniformUint64(static_cast<uint64_t>(num_nodes))));
      dst.push_back(static_cast<int64_t>(
          rng.UniformUint64(static_cast<uint64_t>(num_nodes))));
    }
    std::vector<Tensor> transformed, coeffs;
    std::vector<const float*> pt, pc;
    for (int64_t b = 0; b < num_bases; ++b) {
      transformed.push_back(
          RandomTensor({num_nodes, dout}, 37 + static_cast<uint64_t>(b)));
      coeffs.push_back(RandomTensor({m}, 41 + static_cast<uint64_t>(b)));
    }
    for (int64_t b = 0; b < num_bases; ++b) {
      pt.push_back(transformed[static_cast<size_t>(b)].Data());
      pc.push_back(coeffs[static_cast<size_t>(b)].Data());
    }
    Tensor gate = RandomTensor({m}, 43);
    Tensor out_new = Tensor::Zeros({num_nodes, dout});
    Tensor out_old = Tensor::Zeros({num_nodes, dout});
    gnn::FusedMessageSweep(src, dst, pt, pc, gate.Data(), dout,
                           out_new.Data());
    OldSweep(src, dst, pt, pc, gate.Data(), dout, out_old.Data());
    KernelPoint p;
    p.name = "fused_message_sweep_20k_msgs";
    p.identical = BitEqual(out_new, out_old);
    Tensor scratch = Tensor::Zeros({num_nodes, dout});
    p.seconds_old = TimeBest(5, [&] {
      scratch.FillZero();
      OldSweep(src, dst, pt, pc, gate.Data(), dout, scratch.Data());
    });
    p.seconds_new = TimeBest(5, [&] {
      scratch.FillZero();
      gnn::FusedMessageSweep(src, dst, pt, pc, gate.Data(), dout,
                             scratch.Data());
    });
    p.speedup = p.seconds_old / p.seconds_new;
    // Per message: 2*dout flops per basis + gate + accumulate.
    p.gflops = static_cast<double>(m) * static_cast<double>(dout) *
               (2.0 * static_cast<double>(num_bases) + 2.0) / p.seconds_new /
               1e9;
    kernels.push_back(p);
  }

  // -- Fused multi-tensor Adam step, dense and row-sparse. Bitwise: new
  // Step on a module vs the historical per-parameter loops applied to a
  // cloned parameter/state set.
  {
    nn::Adam::Options opt;
    opt.lr = 0.01;
    const float b1 = static_cast<float>(opt.beta1);
    const float b2 = static_cast<float>(opt.beta2);
    const float eps = static_cast<float>(opt.eps);

    // Identity check: 3 steps, alternating dense/sparse gradients.
    {
      OptimBenchModule mod(47);
      nn::Adam adam(&mod, opt);
      std::vector<Tensor> ref_w, ref_m, ref_v;
      for (const nn::Parameter& pr : mod.parameters()) {
        ref_w.push_back(pr.var.value().Clone());
        ref_m.push_back(Tensor::Zeros(pr.var.value().shape()));
        ref_v.push_back(Tensor::Zeros(pr.var.value().shape()));
      }
      bool identical = true;
      for (int64_t step = 1; step <= 3; ++step) {
        mod.ZeroGrad();
        SeedOptimGrads(&mod, 53 + static_cast<uint64_t>(step), step % 2 == 0);
        const double bias1 = 1.0 - std::pow(opt.beta1, double(step));
        const double bias2 = 1.0 - std::pow(opt.beta2, double(step));
        const float lr_t =
            static_cast<float>(opt.lr * std::sqrt(bias2) / bias1);
        for (size_t i = 0; i < mod.parameters().size(); ++i) {
          const nn::Parameter& pr = mod.parameters()[i];
          OldAdamDense(ref_w[i].Data(), pr.var.grad().Data(),
                       ref_m[i].Data(), ref_v[i].Data(), ref_w[i].numel(),
                       b1, b2, eps, 0.0f, lr_t);
        }
        adam.SparseStep();
        for (size_t i = 0; i < mod.parameters().size(); ++i) {
          identical =
              identical && BitEqual(mod.parameters()[i].var.value(), ref_w[i]);
        }
      }
      KernelPoint p;
      p.name = "adam_fused_vs_historical_identity";
      p.identical = identical;
      p.seconds_old = 0.0;
      p.seconds_new = 0.0;
      p.speedup = 0.0;
      p.gflops = 0.0;
      kernels.push_back(p);
    }

    // Timing: dense fused step vs historical per-parameter loops on
    // same-shape raw tensors (values irrelevant to cost).
    {
      OptimBenchModule mod(59);
      nn::Adam adam(&mod, opt);
      mod.ZeroGrad();
      SeedOptimGrads(&mod, 61, /*sparse=*/false);
      std::vector<Tensor> w, g, m, v;
      int64_t total = 0;
      for (const nn::Parameter& pr : mod.parameters()) {
        w.push_back(pr.var.value().Clone());
        g.push_back(pr.var.grad().Clone());
        m.push_back(Tensor::Zeros(pr.var.value().shape()));
        v.push_back(Tensor::Zeros(pr.var.value().shape()));
        total += pr.var.value().numel();
      }
      KernelPoint p;
      p.name = "adam_step_dense_20k_rows";
      p.identical = true;  // covered by the identity point above
      p.seconds_old = TimeBest(5, [&] {
        for (size_t i = 0; i < w.size(); ++i) {
          OldAdamDense(w[i].Data(), g[i].Data(), m[i].Data(), v[i].Data(),
                       w[i].numel(), b1, b2, eps, 0.0f, 0.001f);
        }
      });
      p.seconds_new = TimeBest(5, [&] { adam.Step(); });
      p.speedup = p.seconds_old / p.seconds_new;
      p.gflops = 11.0 * static_cast<double>(total) / p.seconds_new / 1e9;
      kernels.push_back(p);
    }
  }

  // ----- End-to-end: packed score-batch and train-step across thread
  // counts, bitwise-gated serial vs parallel -----
  ExperimentConfig config = ExperimentConfig::FromEnv();
  DekgDataset dataset =
      MakeDataset(datagen::KgFamily::kFbLike, datagen::EvalSplit::kEq, config);
  core::GsmConfig gsm_config;
  gsm_config.num_relations = dataset.num_relations();
  gsm_config.dim = 32;

  struct EndToEnd {
    double seconds_1t = 0.0;
    double seconds_nt = 0.0;
    bool identical = false;
  };
  EndToEnd score_batch, train_step;

  {
    Rng init(3);
    core::Gsm gsm(gsm_config, &init);
    std::vector<Triple> triples;
    for (const LabeledLink& link : dataset.test_links()) {
      triples.push_back(link.triple);
      if (triples.size() >= 64) break;
    }
    const std::vector<Subgraph> subs =
        gsm.ExtractBatch(dataset.inference_graph(), triples);
    std::vector<const Subgraph*> sub_ptrs;
    std::vector<RelationId> rels;
    for (size_t i = 0; i < subs.size(); ++i) {
      sub_ptrs.push_back(&subs[i]);
      rels.push_back(triples[i].rel);
    }
    SetDefaultThreadCount(1);
    std::vector<float> scores_1t = gsm.ScoreSubgraphsPacked(sub_ptrs, rels);
    score_batch.seconds_1t =
        TimeBest(3, [&] { gsm.ScoreSubgraphsPacked(sub_ptrs, rels); });
    SetDefaultThreadCount(threads);
    std::vector<float> scores_nt = gsm.ScoreSubgraphsPacked(sub_ptrs, rels);
    score_batch.seconds_nt =
        TimeBest(3, [&] { gsm.ScoreSubgraphsPacked(sub_ptrs, rels); });
    score_batch.identical = scores_1t == scores_nt;
  }

  {
    // A miniature training loop over pre-extracted subgraphs: forward,
    // hinge loss, backward, clip, fused sparse Adam step. Run twice from
    // identical init at 1 and N threads; final parameter state must be
    // bitwise identical.
    auto run_training = [&](int nthreads, double* seconds) {
      SetDefaultThreadCount(nthreads);
      Rng init(5);
      core::Gsm gsm(gsm_config, &init);
      nn::Adam::Options opt;
      opt.lr = 0.001;
      nn::Adam adam(&gsm, opt);
      std::vector<Triple> triples;
      for (const LabeledLink& link : dataset.test_links()) {
        triples.push_back(link.triple);
        if (triples.size() >= 16) break;
      }
      const std::vector<Subgraph> subs =
          gsm.ExtractBatch(dataset.inference_graph(), triples);
      Timer timer;
      for (size_t i = 0; i + 1 < subs.size(); i += 2) {
        gsm.ZeroGrad();
        Rng unused(0);
        ag::Var pos = gsm.ScoreSubgraph(subs[i], triples[i].rel,
                                        /*training=*/false, &unused);
        ag::Var neg = gsm.ScoreSubgraph(subs[i + 1], triples[i + 1].rel,
                                        /*training=*/false, &unused);
        ag::Var loss = ag::Relu(ag::AddScalar(ag::Sub(neg, pos), 1.0f));
        loss.Backward();
        nn::ClipGradNorm(&gsm, 5.0);
        adam.SparseStep();
      }
      *seconds = timer.ElapsedSeconds();
      return gsm.StateVector();
    };
    const std::vector<float> state_1t =
        run_training(1, &train_step.seconds_1t);
    const std::vector<float> state_nt =
        run_training(threads, &train_step.seconds_nt);
    train_step.identical =
        state_1t.size() == state_nt.size() &&
        std::equal(state_1t.begin(), state_1t.end(), state_nt.begin(),
                   [](float x, float y) {
                     return std::bit_cast<uint32_t>(x) ==
                            std::bit_cast<uint32_t>(y);
                   });
  }
  SetDefaultThreadCount(0);

  std::printf("\n%-34s %12s %12s %9s %9s %10s\n", "kernel", "old_s", "new_s",
              "speedup", "gflops", "identical");
  for (const KernelPoint& p : kernels) {
    std::printf("%-34s %12.6f %12.6f %8.2fx %9.2f %10s\n", p.name.c_str(),
                p.seconds_old, p.seconds_new, p.speedup, p.gflops,
                p.identical ? "yes" : "NO");
  }
  std::printf("\nend-to-end (threads 1 vs %d):\n", threads);
  std::printf("  score_batch: %.6fs -> %.6fs, identical=%s\n",
              score_batch.seconds_1t, score_batch.seconds_nt,
              score_batch.identical ? "yes" : "NO");
  std::printf("  train_step:  %.6fs -> %.6fs, identical=%s\n",
              train_step.seconds_1t, train_step.seconds_nt,
              train_step.identical ? "yes" : "NO");

  std::FILE* json = std::fopen("BENCH_simd.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_simd.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"lanes\": %lld,\n  \"col_tile\": %lld,\n",
               static_cast<long long>(tune::kLanes),
               static_cast<long long>(tune::kMatMulColTile));
  std::fprintf(json, "  \"kernels\": [");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelPoint& p = kernels[i];
    std::fprintf(json,
                 "%s\n    {\"name\": \"%s\", \"seconds_old\": %.6f, "
                 "\"seconds_new\": %.6f, \"speedup\": %.3f, "
                 "\"gflops\": %.3f, \"identical\": %s}",
                 i == 0 ? "" : ",", p.name.c_str(), p.seconds_old,
                 p.seconds_new, p.speedup, p.gflops,
                 p.identical ? "true" : "false");
  }
  std::fprintf(json,
               "\n  ],\n  \"end_to_end\": {\n"
               "    \"score_batch\": {\"seconds_1t\": %.6f, "
               "\"seconds_%dt\": %.6f, \"identical\": %s},\n"
               "    \"train_step\": {\"seconds_1t\": %.6f, "
               "\"seconds_%dt\": %.6f, \"identical\": %s}\n  }\n}\n",
               score_batch.seconds_1t, threads, score_batch.seconds_nt,
               score_batch.identical ? "true" : "false",
               train_step.seconds_1t, threads, train_step.seconds_nt,
               train_step.identical ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_simd.json\n");

  // The bitwise gate is the hard requirement; speedup is reported only.
  bool ok = score_batch.identical && train_step.identical;
  for (const KernelPoint& p : kernels) ok = ok && p.identical;
  return ok ? 0 : 1;
}
