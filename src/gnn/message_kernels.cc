#include "gnn/message_kernels.h"

#include <algorithm>

#include "tensor/lanes.h"

namespace dekg::gnn {

using lanes::kLanes;

void FusedMessageSweep(const std::vector<int64_t>& src_ids,
                       const std::vector<int64_t>& dst_ids,
                       const std::vector<const float*>& transformed,
                       const std::vector<const float*>& coeff_cols,
                       const float* gate, int64_t dout, float* out) {
  const int64_t m = static_cast<int64_t>(src_ids.size());
  const int64_t num_bases = static_cast<int64_t>(transformed.size());
  const int64_t blocked = dout - dout % kLanes;
  for (int64_t e = 0; e < m; ++e) {
    const int64_t src = src_ids[static_cast<size_t>(e)];
    const int64_t dst = dst_ids[static_cast<size_t>(e)];
    float* out_row = out + dst * dout;
    const float* t0 = transformed[0] + src * dout;
    const float c0 = coeff_cols[0][e];
    const float ge = gate != nullptr ? gate[e] : 1.0f;
    // Lane blocks: kLanes independent output elements in flight, each
    // evaluating the exact scalar expression
    //   out[j] += ge * (t0[j]*c0 + t1[j]*c1 + ...)
    // — no cross-element reduction, so the tiling never changes a bit.
    for (int64_t j0 = 0; j0 < blocked; j0 += kLanes) {
      float v[kLanes];
      for (int64_t l = 0; l < kLanes; ++l) v[l] = t0[j0 + l] * c0;
      for (int64_t b = 1; b < num_bases; ++b) {
        const float* tb = transformed[static_cast<size_t>(b)] + src * dout;
        const float cb = coeff_cols[static_cast<size_t>(b)][e];
        for (int64_t l = 0; l < kLanes; ++l) v[l] += tb[j0 + l] * cb;
      }
      if (gate != nullptr) {
        for (int64_t l = 0; l < kLanes; ++l) v[l] *= ge;
      }
      for (int64_t l = 0; l < kLanes; ++l) out_row[j0 + l] += v[l];
    }
    for (int64_t j = blocked; j < dout; ++j) {
      float v = t0[j] * c0;
      for (int64_t b = 1; b < num_bases; ++b) {
        v += transformed[static_cast<size_t>(b)][src * dout + j] *
             coeff_cols[static_cast<size_t>(b)][e];
      }
      if (gate != nullptr) v *= ge;
      out_row[j] += v;
    }
  }
}

namespace {

// Message e's attention input [h[src], h[dst], rel_emb[rel],
// target_emb[target]], copied into `row` (2*din + 2*att_dim floats): the
// row of the [m, att_in] concat the autograd chain materializes whole.
void AttentionRow(int64_t e, const std::vector<int64_t>& src_ids,
                  const std::vector<int64_t>& dst_ids,
                  const std::vector<int64_t>& rel_ids,
                  const std::vector<int64_t>& target_ids, const float* h,
                  int64_t din, const float* rel_emb, const float* target_emb,
                  int64_t att_dim, float* row) {
  const float* hs = h + src_ids[static_cast<size_t>(e)] * din;
  const float* hd = h + dst_ids[static_cast<size_t>(e)] * din;
  const float* re = rel_emb + rel_ids[static_cast<size_t>(e)] * att_dim;
  const float* te = target_emb + target_ids[static_cast<size_t>(e)] * att_dim;
  std::copy(hs, hs + din, row);
  std::copy(hd, hd + din, row + din);
  std::copy(re, re + att_dim, row + 2 * din);
  std::copy(te, te + att_dim, row + 2 * din + att_dim);
}

// acc[j] += a[j] * s, the product rounded before the add. Lane blocks
// with no cross-element reduction, so the tiling never changes a bit.
void LaneAxpyF32(float* acc, const float* a, float s, int64_t n) {
  const int64_t blocked = n - n % kLanes;
  for (int64_t j0 = 0; j0 < blocked; j0 += kLanes) {
    float v[kLanes];
    for (int64_t l = 0; l < kLanes; ++l) v[l] = a[j0 + l] * s;
    for (int64_t l = 0; l < kLanes; ++l) acc[j0 + l] += v[l];
  }
  for (int64_t j = blocked; j < n; ++j) acc[j] += a[j] * s;
}

}  // namespace

void FusedAttentionLogits(const std::vector<int64_t>& src_ids,
                          const std::vector<int64_t>& dst_ids,
                          const std::vector<int64_t>& rel_ids,
                          const std::vector<int64_t>& target_ids,
                          const float* h, int64_t din, const float* rel_emb,
                          const float* target_emb, int64_t att_dim,
                          const float* w, float bias, float* logits) {
  const int64_t m = static_cast<int64_t>(src_ids.size());
  const int64_t att_in = 2 * din + 2 * att_dim;
  // One scratch row reused across messages.
  std::vector<float> row(static_cast<size_t>(att_in));
  float* pr = row.data();
  for (int64_t e = 0; e < m; ++e) {
    AttentionRow(e, src_ids, dst_ids, rel_ids, target_ids, h, din, rel_emb,
                 target_emb, att_dim, pr);
    logits[e] = lanes::LaneDotF32(pr, w, att_in) + bias;
  }
}

void FusedMessageSweepBackward(const std::vector<int64_t>& src_ids,
                               const std::vector<int64_t>& dst_ids,
                               const std::vector<const float*>& transformed,
                               const std::vector<const float*>& coeff_cols,
                               const float* gate, const float* out_grad,
                               int64_t dout,
                               const std::vector<float*>& transformed_grads,
                               const std::vector<float*>& coeff_grads,
                               float* gate_grad) {
  const int64_t m = static_cast<int64_t>(src_ids.size());
  const int64_t num_bases = static_cast<int64_t>(transformed.size());
  const int64_t blocked = dout - dout % kLanes;
  // g (the gated message gradient) and the recomputed mix: one row each,
  // reused across messages.
  std::vector<float> scratch(static_cast<size_t>(2 * dout));
  float* g = scratch.data();
  float* mix = scratch.data() + dout;
  std::vector<const float*> t_rows(static_cast<size_t>(num_bases));
  std::vector<double> acc(static_cast<size_t>(num_bases));
  for (int64_t e = 0; e < m; ++e) {
    const int64_t src = src_ids[static_cast<size_t>(e)];
    const float* r = out_grad + dst_ids[static_cast<size_t>(e)] * dout;
    for (int64_t b = 0; b < num_bases; ++b) {
      t_rows[static_cast<size_t>(b)] =
          transformed[static_cast<size_t>(b)] + src * dout;
    }
    if (gate != nullptr) {
      // The un-gated mix, FusedMessageSweep's b-ascending left fold.
      const float c0 = coeff_cols[0][e];
      for (int64_t j0 = 0; j0 < blocked; j0 += kLanes) {
        float v[kLanes];
        for (int64_t l = 0; l < kLanes; ++l) v[l] = t_rows[0][j0 + l] * c0;
        for (int64_t b = 1; b < num_bases; ++b) {
          const float* tb = t_rows[static_cast<size_t>(b)];
          const float cb = coeff_cols[static_cast<size_t>(b)][e];
          for (int64_t l = 0; l < kLanes; ++l) v[l] += tb[j0 + l] * cb;
        }
        for (int64_t l = 0; l < kLanes; ++l) mix[j0 + l] = v[l];
      }
      for (int64_t j = blocked; j < dout; ++j) {
        float v = t_rows[0][j] * c0;
        for (int64_t b = 1; b < num_bases; ++b) {
          v += t_rows[static_cast<size_t>(b)][j] *
               coeff_cols[static_cast<size_t>(b)][e];
        }
        mix[j] = v;
      }
      double dot = 0.0;
      for (int64_t j = 0; j < dout; ++j) {
        dot += static_cast<double>(r[j]) * mix[j];
      }
      gate_grad[e] = static_cast<float>(dot);
      const float ge = gate[e];
      for (int64_t j0 = 0; j0 < blocked; j0 += kLanes) {
        for (int64_t l = 0; l < kLanes; ++l) g[j0 + l] = r[j0 + l] * ge;
      }
      for (int64_t j = blocked; j < dout; ++j) g[j] = r[j] * ge;
    } else {
      std::copy(r, r + dout, g);
    }
    for (int64_t b = 0; b < num_bases; ++b) {
      const float cb = coeff_cols[static_cast<size_t>(b)][e];
      // The scaled row is rounded before the add, as the ScaleRows
      // backward and ScatterAddRows do in two passes.
      LaneAxpyF32(transformed_grads[static_cast<size_t>(b)] + src * dout, g,
                  cb, dout);
    }
    // One double chain per basis, each j-ascending; interleaving the
    // chains reorders nothing within one.
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int64_t j = 0; j < dout; ++j) {
      const double gj = g[j];
      for (int64_t b = 0; b < num_bases; ++b) {
        acc[static_cast<size_t>(b)] += gj * t_rows[static_cast<size_t>(b)][j];
      }
    }
    for (int64_t b = 0; b < num_bases; ++b) {
      coeff_grads[static_cast<size_t>(b)][e] =
          static_cast<float>(acc[static_cast<size_t>(b)]);
    }
  }
}

void FusedAttentionLogitsBackward(const std::vector<int64_t>& src_ids,
                                  const std::vector<int64_t>& dst_ids,
                                  const std::vector<int64_t>& rel_ids,
                                  const std::vector<int64_t>& target_ids,
                                  const float* h, int64_t din,
                                  const float* rel_emb,
                                  const float* target_emb, int64_t att_dim,
                                  const float* w, const float* logit_grad,
                                  float* h_src_grad, float* h_dst_grad,
                                  float* rel_grad, float* target_grad,
                                  float* w_grad) {
  const int64_t m = static_cast<int64_t>(src_ids.size());
  const int64_t att_in = 2 * din + 2 * att_dim;
  const int64_t blocked_in = att_in - att_in % kLanes;
  // Scratch: the concat row, its gradient, and kLanes partial sums per
  // weight (lane l holds LaneDotF32's acc[l] for every column at once).
  std::vector<float> scratch(static_cast<size_t>((2 + kLanes) * att_in));
  float* row = scratch.data();
  float* d = row + att_in;
  float* lane_acc = d + att_in;
  std::fill(lane_acc, lane_acc + kLanes * att_in, 0.0f);
  const int64_t blocked = m - m % kLanes;
  for (int64_t e = 0; e <= m; ++e) {
    if (e == blocked) {
      // LaneDotF32's lane reduction, before its scalar tail.
      std::copy(lane_acc, lane_acc + att_in, w_grad);
      for (int64_t l = 1; l < kLanes; ++l) {
        lanes::LaneAddF32(w_grad, lane_acc + l * att_in, att_in);
      }
    }
    if (e == m) break;
    AttentionRow(e, src_ids, dst_ids, rel_ids, target_ids, h, din, rel_emb,
                 target_emb, att_dim, row);
    const float ge = logit_grad[e];
    LaneAxpyF32(e < blocked ? lane_acc + (e % kLanes) * att_in : w_grad, row,
                ge, att_in);
    // The k == 1 product's accumulator starts at +0, so 0 + ge * w, not
    // ge * w: the two differ when the product is -0.
    for (int64_t j0 = 0; j0 < blocked_in; j0 += kLanes) {
      float v[kLanes];
      for (int64_t l = 0; l < kLanes; ++l) v[l] = 0.0f + ge * w[j0 + l];
      for (int64_t l = 0; l < kLanes; ++l) d[j0 + l] = v[l];
    }
    for (int64_t j = blocked_in; j < att_in; ++j) d[j] = 0.0f + ge * w[j];
    if (h_src_grad != nullptr) {
      lanes::LaneAddF32(h_src_grad + src_ids[static_cast<size_t>(e)] * din, d,
                        din);
      lanes::LaneAddF32(h_dst_grad + dst_ids[static_cast<size_t>(e)] * din,
                        d + din, din);
    }
    lanes::LaneAddF32(rel_grad + rel_ids[static_cast<size_t>(e)] * att_dim,
                      d + 2 * din, att_dim);
    lanes::LaneAddF32(
        target_grad + target_ids[static_cast<size_t>(e)] * att_dim,
        d + 2 * din + att_dim, att_dim);
  }
}

}  // namespace dekg::gnn
