// Fused per-message kernels of the R-GCN layer (RgcnEncoder's forward
// and its hand-written backward), factored out of RgcnEncoder so
// bench/bench_simd.cc can time them against reference implementations on
// synthetic message lists.
//
// Both kernels are lane-tiled (tensor/lanes.h shapes) but order-preserving
// per output element: the basis mix is the same left-fold the autograd
// path builds from ScaleRows + Add, and the scatter-add touches each
// destination row in packed message order. Only FusedAttentionLogits
// performs a cross-element reduction, and it does so through
// lanes::LaneDotF32 on a materialized concat row — the exact reduction
// MatMul's n == 1 path runs for the autograd formulation
// MatMul(Concat({h_src, h_dst, rel, target}), w), keeping the two
// formulations bit-identical under the fixed-lane contract (DESIGN.md
// §12).
#ifndef DEKG_GNN_MESSAGE_KERNELS_H_
#define DEKG_GNN_MESSAGE_KERNELS_H_

#include <cstdint>
#include <vector>

namespace dekg::gnn {

// For each message e: out[dst[e], :] += gate_e * sum_b coeff_cols[b][e] *
// transformed[b][src[e], :], with gate_e = gate[e] when gate != nullptr
// and 1 otherwise. `transformed` holds num_bases pointers to [num_nodes,
// dout] basis transforms, `coeff_cols` num_bases pointers to [m] per-edge
// coefficient columns. The basis sum is accumulated b-ascending per
// element (b == 0 initializes), matching the autograd left-fold bit for
// bit; messages run e-ascending so duplicate destinations accumulate in
// packed order.
void FusedMessageSweep(const std::vector<int64_t>& src_ids,
                       const std::vector<int64_t>& dst_ids,
                       const std::vector<const float*>& transformed,
                       const std::vector<const float*>& coeff_cols,
                       const float* gate, int64_t dout, float* out);

// For each message e: logits[e] = bias + w . [h[src[e]], h[dst[e]],
// rel_emb[rel[e]], target_emb[target[e]]], the concat row materialized
// into a reusable scratch buffer and reduced with lanes::LaneDotF32 so the
// result is bit-identical to MatMul(Concat(...), w) + bias. `w` has
// 2*din + 2*att_dim rows.
void FusedAttentionLogits(const std::vector<int64_t>& src_ids,
                          const std::vector<int64_t>& dst_ids,
                          const std::vector<int64_t>& rel_ids,
                          const std::vector<int64_t>& target_ids,
                          const float* h, int64_t din, const float* rel_emb,
                          const float* target_emb, int64_t att_dim,
                          const float* w, float bias, float* logits);

// Backward of FusedMessageSweep, in the arithmetic of the autograd chain
// it fuses (GatherRows -> ScaleRows + Add left-fold -> gate ScaleRows ->
// ScatterSumRows). `out_grad` is d(loss)/d(out), [num_nodes, dout]. Per
// message e, with r = out_grad[dst[e]] and g = r * gate[e] (r when gate
// is null):
//   gate_grad[e]   = sum_j r[j] * mix[j], mix the recomputed un-gated
//                    basis mix (only when gate != nullptr)
//   transformed_grads[b][src[e], :] += g * coeff_cols[b][e]
//   coeff_grads[b][e] = sum_j g[j] * transformed[b][src[e], j]
// Both sums accumulate j-ascending in double, as the ScaleRows backward
// does; the scatters run e-ascending into buffers the caller zeroes, as
// the GatherRows backward does. So every output is bit-identical to the
// chain's.
void FusedMessageSweepBackward(const std::vector<int64_t>& src_ids,
                               const std::vector<int64_t>& dst_ids,
                               const std::vector<const float*>& transformed,
                               const std::vector<const float*>& coeff_cols,
                               const float* gate, const float* out_grad,
                               int64_t dout,
                               const std::vector<float*>& transformed_grads,
                               const std::vector<float*>& coeff_grads,
                               float* gate_grad);

// Backward of FusedAttentionLogits given logit_grad [m]. Per message e,
// the concat-row gradient d[j] = 0 + logit_grad[e] * w[j] (the k == 1
// MatMul that multiplies by w's transpose) is scattered e-ascending into
// h_src_grad[src[e]] (the first din entries), h_dst_grad[dst[e]],
// rel_grad[rel[e]] and target_grad[target[e]]; the caller zeroes them,
// and null h_src_grad / h_dst_grad skip the h rows. w_grad[j] is the
// LaneDotF32 of concat column j with logit_grad, the n == 1 MatMul of
// the concat's transpose by logit_grad, so it is bit-identical too.
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
                                  float* w_grad);

}  // namespace dekg::gnn

#endif  // DEKG_GNN_MESSAGE_KERNELS_H_
