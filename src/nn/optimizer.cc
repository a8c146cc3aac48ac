#include "nn/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/checkpoint.h"
#include "tensor/lanes.h"

namespace dekg::nn {

namespace {

// Moment tensors are stored as (numel, float data) per parameter; a numel
// of 0 marks a lazily-uninitialized slot. Shapes are recovered from the
// module's parameters, which restore before the optimizer.
void AppendMomentTensors(const std::vector<Tensor>& tensors,
                         std::vector<uint8_t>* out) {
  ckpt::AppendPod(out, static_cast<uint32_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    ckpt::AppendPod(out, static_cast<uint64_t>(t.numel()));
    if (t.numel() > 0) {
      ckpt::AppendRaw(out, t.Data(),
                      static_cast<size_t>(t.numel()) * sizeof(float));
    }
  }
}

bool ReadMomentTensors(ckpt::ByteReader* reader,
                       const std::vector<Parameter>& params,
                       std::vector<Tensor>* tensors) {
  uint32_t count = 0;
  if (!reader->ReadPod(&count) || count != params.size()) return false;
  tensors->assign(count, Tensor());
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t numel = 0;
    if (!reader->ReadPod(&numel)) return false;
    if (numel == 0) continue;
    const Tensor& value = params[i].var.value();
    if (numel != static_cast<uint64_t>(value.numel())) return false;
    (*tensors)[i] = Tensor::Zeros(value.shape());
    if (!reader->ReadRaw((*tensors)[i].Data(),
                         static_cast<size_t>(numel) * sizeof(float))) {
      return false;
    }
  }
  return true;
}

// True when every element of row `row` has the exact +0.0f bit pattern
// (0x00000000). -0.0f does NOT qualify: a zero-grad Adam update turns
// -0 state into +0, so such rows are not bitwise no-ops.
bool RowBitsAllPositiveZero(const Tensor& t, int64_t row) {
  const int64_t cols = t.dim(1);
  const float* p = t.Data() + row * cols;
  for (int64_t j = 0; j < cols; ++j) {
    if (std::bit_cast<uint32_t>(p[j]) != 0u) return false;
  }
  return true;
}

// The rows a sparse step touched: a row participates when any element of
// its (full-size) gradient has a nonzero bit pattern, so an explicit -0.0
// gradient still counts as touched. Returns rows in ascending order.
std::vector<int64_t> TouchedRows(const Tensor& grad) {
  const int64_t rows = grad.dim(0);
  const int64_t cols = grad.dim(1);
  std::vector<int64_t> touched;
  for (int64_t r = 0; r < rows; ++r) {
    const float* g = grad.Data() + r * cols;
    for (int64_t j = 0; j < cols; ++j) {
      if (std::bit_cast<uint32_t>(g[j]) != 0u) {
        touched.push_back(r);
        break;
      }
    }
  }
  return touched;
}

// Ascending union of the touched rows with the currently-hot rows: the
// exact set of rows whose dense update this step is (potentially) not a
// bitwise no-op.
std::vector<int64_t> UnionRows(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The rows among `candidates` where either moment holds any nonzero bit:
// every other row's zero-gradient dense update is a bitwise no-op.
std::vector<int64_t> HotRows(const std::vector<int64_t>& candidates,
                             const Tensor& m, const Tensor& v) {
  std::vector<int64_t> hot;
  for (int64_t r : candidates) {
    if (!RowBitsAllPositiveZero(m, r) || !RowBitsAllPositiveZero(v, r)) {
      hot.push_back(r);
    }
  }
  return hot;
}

// Adam's per-step effective learning rate (bias-corrected).
float AdamLrT(const Adam::Options& options, int64_t t) {
  const double bias1 =
      1.0 - std::pow(options.beta1, static_cast<double>(t));
  const double bias2 =
      1.0 - std::pow(options.beta2, static_cast<double>(t));
  return static_cast<float>(options.lr * std::sqrt(bias2) / bias1);
}

// The fused multi-tensor step works on contiguous element runs ("spans")
// gathered across ALL parameters up front: a dense parameter contributes
// one whole-tensor span, a row-sparse one one span per run of consecutive
// touched-or-hot rows. A single lane-vectorized pass then walks the span
// list, so the per-element update loop is instantiated once per optimizer
// instead of once per parameter-times-mode, and short parameter tails no
// longer each pay their own loop setup. Updates are per-element
// independent (no cross-element reduction), so fusing and lane-tiling
// change no bits relative to the historical per-parameter loops.
struct AdamSpan {
  float* w;
  const float* g;
  float* m;
  float* v;
  int64_t n;
};

// Calls make(first_row, num_elements) once per maximal run of consecutive
// rows. Touched/hot row sets cluster heavily in practice (contiguous
// entity-id ranges), so most sparse steps collapse into a few long spans.
template <typename MakeSpan>
void ForEachRowRun(const std::vector<int64_t>& rows, int64_t cols,
                   MakeSpan&& make) {
  size_t s = 0;
  while (s < rows.size()) {
    size_t e = s + 1;
    while (e < rows.size() && rows[e] == rows[e - 1] + 1) ++e;
    make(rows[s], (rows[e - 1] - rows[s] + 1) * cols);
    s = e;
  }
}

}  // namespace

double ClipGradNorm(Module* module, double max_norm) {
  // Per-tensor fixed-lane sums of squares (lanes.h contract), combined in
  // parameter-registration order.
  double sq = 0.0;
  for (const Parameter& p : module->parameters()) {
    if (!p.var.has_grad()) continue;
    const Tensor& g = p.var.grad();
    sq += lanes::LaneSumSquaresF64(g.Data(), g.numel());
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (const Parameter& p : module->parameters()) {
      if (!p.var.has_grad()) continue;
      // Tensor copies share storage, so scaling the copy rescales the
      // stored gradient — the one sanctioned gradient mutation between
      // backward and Step().
      Tensor g = p.var.grad();
      g.ScaleInPlace(scale);
    }
  }
  return norm;
}

// ----- Adam -----

Adam::Adam(Module* module, Options options)
    : module_(module), options_(options) {
  m_.resize(module_->parameters().size());
  v_.resize(module_->parameters().size());
  hot_.resize(module_->parameters().size());
}

void Adam::Step() { StepImpl(/*sparse=*/false); }

void Adam::SparseStep() { StepImpl(/*sparse=*/true); }

void Adam::StepImpl(bool sparse) {
  ++t_;
  const auto& params = module_->parameters();
  const float lr_t = AdamLrT(options_, t_);
  const float b1 = static_cast<float>(options_.beta1);
  const float b2 = static_cast<float>(options_.beta2);
  const float eps = static_cast<float>(options_.eps);
  const float wd = static_cast<float>(options_.weight_decay);

  // Phase 1: resolve each parameter into contiguous spans.
  std::vector<AdamSpan> spans;
  struct HotMaintenance {
    size_t param;
    std::vector<int64_t> rows;
  };
  std::vector<HotMaintenance> maintenance;
  for (size_t i = 0; i < params.size(); ++i) {
    const Parameter& p = params[i];
    if (!p.var.has_grad()) continue;
    Tensor& value = const_cast<Parameter&>(p).var.mutable_value();
    const Tensor& grad = p.var.grad();
    if (m_[i].numel() != value.numel()) {
      m_[i] = Tensor::Zeros(value.shape());
      v_[i] = Tensor::Zeros(value.shape());
      hot_[i].rows.clear();
      hot_[i].valid = true;
    }
    float* w = value.Data();
    const float* g = grad.Data();
    float* m = m_[i].Data();
    float* v = v_[i].Data();
    // The skipped-row no-op argument needs zero weight decay and a
    // non-negative learning rate; anything else runs dense.
    if (sparse && value.rank() == 2 && options_.weight_decay == 0.0 &&
        options_.lr >= 0.0) {
      HotRowState& hot = hot_[i];
      if (!hot.valid) {
        std::vector<int64_t> all(static_cast<size_t>(value.dim(0)));
        std::iota(all.begin(), all.end(), int64_t{0});
        hot.rows = HotRows(all, m_[i], v_[i]);
        hot.valid = true;
      }
      // Dense Adam moves every row with nonzero moments at every step the
      // parameter has a gradient (the moments decay and the decayed
      // momentum keeps nudging the weights), so hot rows are updated
      // alongside the touched rows — with their true (possibly all-zero)
      // gradient row. The remaining rows have +0 moments and +0
      // gradients: their dense update is a bitwise no-op, so skipping
      // them cannot be observed.
      std::vector<int64_t> rows = UnionRows(TouchedRows(grad), hot.rows);
      const int64_t cols = value.dim(1);
      ForEachRowRun(rows, cols, [&](int64_t r0, int64_t n) {
        spans.push_back({w + r0 * cols, g + r0 * cols, m + r0 * cols,
                         v + r0 * cols, n});
      });
      maintenance.push_back({i, std::move(rows)});
    } else {
      spans.push_back({w, g, m, v, value.numel()});
      // A dense pass may light up any row's moments; recompute lazily.
      hot_[i].valid = false;
    }
  }

  // Phase 2: one fused lane-vectorized pass over every span. Per-element
  // independent update; sqrt vectorizes because the build disables
  // math errno.
  using lanes::kLanes;
  // Spans never overlap (each is a distinct parameter row range), but the
  // vectorizer cannot see that through the span struct: __restrict locals
  // are what let the four-pointer update loop vectorize.
  for (const AdamSpan& sp : spans) {
    float* __restrict w = sp.w;
    const float* __restrict g = sp.g;
    float* __restrict m = sp.m;
    float* __restrict v = sp.v;
    const int64_t blocked = sp.n - sp.n % kLanes;
    for (int64_t j0 = 0; j0 < blocked; j0 += kLanes) {
      for (int64_t l = 0; l < kLanes; ++l) {
        const int64_t j = j0 + l;
        const float gj = g[j] + wd * w[j];
        m[j] = b1 * m[j] + (1.0f - b1) * gj;
        v[j] = b2 * v[j] + (1.0f - b2) * gj * gj;
        w[j] -= lr_t * m[j] / (std::sqrt(v[j]) + eps);
      }
    }
    for (int64_t j = blocked; j < sp.n; ++j) {
      const float gj = g[j] + wd * w[j];
      m[j] = b1 * m[j] + (1.0f - b1) * gj;
      v[j] = b2 * v[j] + (1.0f - b2) * gj * gj;
      w[j] -= lr_t * m[j] / (std::sqrt(v[j]) + eps);
    }
  }

  // Phase 3: re-derive hot rows for the sparse parameters: rows whose
  // moments decayed to exact +0 leave the set.
  for (const HotMaintenance& hm : maintenance) {
    hot_[hm.param].rows = HotRows(hm.rows, m_[hm.param], v_[hm.param]);
    hot_[hm.param].valid = true;
  }
}

void Adam::SerializeState(std::vector<uint8_t>* out) const {
  ckpt::AppendPod(out, static_cast<uint8_t>('A'));
  ckpt::AppendPod(out, t_);
  AppendMomentTensors(m_, out);
  AppendMomentTensors(v_, out);
}

bool Adam::RestoreState(const std::vector<uint8_t>& payload) {
  ckpt::ByteReader reader(payload);
  uint8_t tag = 0;
  if (!reader.ReadPod(&tag) || tag != 'A') return false;
  if (!reader.ReadPod(&t_) ||
      !ReadMomentTensors(&reader, module_->parameters(), &m_) ||
      !ReadMomentTensors(&reader, module_->parameters(), &v_) ||
      !reader.AtEnd()) {
    return false;
  }
  // Hot rows are derived from the moment tensors; recompute on demand.
  hot_.assign(module_->parameters().size(), HotRowState());
  return true;
}

}  // namespace dekg::nn
