#include "gnn/rgcn.h"

#include "common/thread_pool.h"
#include "gnn/message_kernels.h"
#include "tensor/lanes.h"
#include "tensor/tuning.h"

namespace dekg::gnn {

namespace {

using ag::internal::VarImpl;

// Per-node inverse in-degree over a message list (0 for isolated nodes).
Tensor InvIndegree(const std::vector<int64_t>& dst_ids, int64_t num_nodes) {
  Tensor inv(Shape{num_nodes});
  std::vector<int32_t> deg(static_cast<size_t>(num_nodes), 0);
  for (int64_t d : dst_ids) ++deg[static_cast<size_t>(d)];
  for (int64_t i = 0; i < num_nodes; ++i) {
    const int32_t d = deg[static_cast<size_t>(i)];
    inv.At(i) = d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
  }
  return inv;
}

// Accumulates g into `parent` when it is tracked.
void AccumulateInto(VarImpl* parent, const Tensor& g) {
  if (parent->requires_grad) parent->AccumulateGrad(g);
}

}  // namespace

RgcnEncoder::RgcnEncoder(const RgcnConfig& config, Rng* rng)
    : config_(config) {
  DEKG_CHECK_GT(config_.num_relations, 0);
  DEKG_CHECK_GE(config_.num_layers, 1);
  DEKG_CHECK_GE(config_.num_bases, 1);
  const int64_t r2 = 2 * config_.num_relations;
  for (int32_t l = 0; l < config_.num_layers; ++l) {
    const int64_t din = l == 0 ? input_dim() : config_.hidden_dim;
    const int64_t dout = config_.hidden_dim;
    Layer layer;
    for (int32_t b = 0; b < config_.num_bases; ++b) {
      layer.bases.push_back(RegisterParameter(
          "layer" + std::to_string(l) + ".basis" + std::to_string(b),
          Tensor::XavierUniform(Shape{din, dout}, rng)));
    }
    layer.coefficients = RegisterParameter(
        "layer" + std::to_string(l) + ".coeff",
        Tensor::Uniform(Shape{r2, config_.num_bases}, -0.5f, 0.5f, rng));
    layer.self_weight = RegisterParameter(
        "layer" + std::to_string(l) + ".self",
        Tensor::XavierUniform(Shape{din, dout}, rng));
    layer.bias = RegisterParameter("layer" + std::to_string(l) + ".bias",
                                   Tensor::Zeros(Shape{dout}));
    layers_.push_back(std::move(layer));
    if (config_.edge_attention) {
      const int64_t att_in = 2 * din + 2 * config_.attention_rel_dim;
      att_weight_.push_back(RegisterParameter(
          "att.layer" + std::to_string(l) + ".weight",
          Tensor::XavierUniform(Shape{att_in, 1}, rng)));
      att_bias_.push_back(RegisterParameter(
          "att.layer" + std::to_string(l) + ".bias", Tensor::Zeros(Shape{1})));
    }
  }
  if (config_.edge_attention) {
    att_rel_ = RegisterParameter(
        "att.rel",
        Tensor::Uniform(Shape{r2, config_.attention_rel_dim}, -0.5f, 0.5f, rng));
    att_target_rel_ = RegisterParameter(
        "att.target_rel",
        Tensor::Uniform(Shape{config_.num_relations, config_.attention_rel_dim},
                        -0.5f, 0.5f, rng));
  }
  basis_selectors_.reserve(static_cast<size_t>(config_.num_bases));
  for (int32_t b = 0; b < config_.num_bases; ++b) {
    Tensor selector = Tensor::Zeros(Shape{config_.num_bases, 1});
    selector.At(b, 0) = 1.0f;
    basis_selectors_.push_back(std::move(selector));
  }
}

Tensor RgcnEncoder::NodeFeatures(const Subgraph& subgraph) const {
  const int64_t n = static_cast<int64_t>(subgraph.nodes.size());
  const int32_t span = config_.num_hops + 1;
  Tensor features(Shape{n, 2 * span});
  for (int64_t i = 0; i < n; ++i) {
    const SubgraphNode& node = subgraph.nodes[static_cast<size_t>(i)];
    if (node.dist_head >= 0 && node.dist_head <= config_.num_hops) {
      features.At(i, node.dist_head) = 1.0f;
    }
    if (node.dist_tail >= 0 && node.dist_tail <= config_.num_hops) {
      features.At(i, span + node.dist_tail) = 1.0f;
    }
  }
  return features;
}

RgcnMessages RgcnEncoder::BuildMessages(const Subgraph& subgraph,
                                        RelationId target_rel, bool training,
                                        Rng* rng) const {
  RgcnMessages msgs;
  msgs.src_ids.reserve(subgraph.edges.size() * 2);
  msgs.dst_ids.reserve(subgraph.edges.size() * 2);
  msgs.rel_ids.reserve(subgraph.edges.size() * 2);
  for (const SubgraphEdge& e : subgraph.edges) {
    if (training && config_.edge_dropout > 0.0f &&
        rng->Bernoulli(config_.edge_dropout)) {
      continue;
    }
    msgs.src_ids.push_back(e.src);
    msgs.dst_ids.push_back(e.dst);
    msgs.rel_ids.push_back(e.rel);
    msgs.src_ids.push_back(e.dst);
    msgs.dst_ids.push_back(e.src);
    msgs.rel_ids.push_back(e.rel + config_.num_relations);
  }
  msgs.target_ids.assign(msgs.src_ids.size(), target_rel);
  msgs.inv_indegree = InvIndegree(
      msgs.dst_ids, static_cast<int64_t>(subgraph.nodes.size()));
  return msgs;
}

RgcnOutput RgcnEncoder::Forward(const Subgraph& subgraph,
                                RelationId target_rel, bool training,
                                Rng* rng) const {
  const int64_t n = static_cast<int64_t>(subgraph.nodes.size());
  DEKG_CHECK_GE(n, 2);
  DEKG_CHECK(target_rel >= 0 && target_rel < config_.num_relations);

  // Every layer's node shares the list (edge dropout removes whole
  // directed pairs during training).
  auto messages = std::make_shared<const RgcnMessages>(
      BuildMessages(subgraph, target_rel, training, rng));
  ag::Var h = ag::Var::Constant(NodeFeatures(subgraph));
  std::vector<ag::Var> layer_outputs;
  for (size_t l = 0; l < layers_.size(); ++l) {
    h = LayerOp(l, h, messages);
    if (config_.jk_concat) layer_outputs.push_back(h);
  }

  ag::Var readout =
      config_.jk_concat ? ag::Concat(layer_outputs, /*axis=*/1) : h;
  RgcnOutput out;
  out.node_states = readout;
  out.graph_repr = ag::MeanOverRows(readout);
  out.head_repr = ag::GatherRows(readout, {subgraph.head_local()});
  out.tail_repr = ag::GatherRows(readout, {subgraph.tail_local()});
  return out;
}

Tensor RgcnEncoder::FusedLayerForward(size_t l, const Tensor& h,
                                      const MessageView& messages,
                                      LayerSaved* saved) const {
  const Layer& layer = layers_[l];
  const int64_t num_nodes = h.dim(0);
  const int64_t din = h.dim(1);
  const int64_t dout = config_.hidden_dim;
  const int64_t m = static_cast<int64_t>(messages.src_ids.size());
  const int32_t num_bases = config_.num_bases;
  Tensor aggregated = Tensor::Zeros(Shape{num_nodes, dout});
  if (m > 0) {
    // Dense per-node transforms go through the tensor kernels the per-op
    // autograd chain wraps (row-identical for identical rows); only the
    // [m, dout]-sized message chain is fused below.
    std::vector<Tensor> transformed;
    transformed.reserve(static_cast<size_t>(num_bases));
    for (int32_t b = 0; b < num_bases; ++b) {
      transformed.push_back(
          dekg::MatMul(h, layer.bases[static_cast<size_t>(b)].value()));
    }
    // Per-edge coefficient columns. The chain's c_b = Gather(coeff, rel) @
    // sel_b makes c_b[e] the n == 1 MatMul dot of coefficient row rel[e]
    // with selector b, which depends on rel[e] alone: take that same
    // LaneDotF32 once per relation row and basis, then gather it.
    const Tensor& coefficients = layer.coefficients.value();
    const int64_t num_rel_rows = coefficients.dim(0);
    std::vector<float> coeff_table(
        static_cast<size_t>(num_rel_rows * num_bases));
    for (int64_t r = 0; r < num_rel_rows; ++r) {
      for (int32_t b = 0; b < num_bases; ++b) {
        coeff_table[static_cast<size_t>(r * num_bases + b)] =
            lanes::LaneDotF32(coefficients.Data() + r * num_bases,
                              basis_selectors_[static_cast<size_t>(b)].Data(),
                              num_bases);
      }
    }
    std::vector<Tensor> coeff_cols;  // [m, 1] each
    coeff_cols.reserve(static_cast<size_t>(num_bases));
    for (int32_t b = 0; b < num_bases; ++b) {
      coeff_cols.emplace_back(Shape{m, 1});
    }
    for (int64_t e = 0; e < m; ++e) {
      const int64_t rel = messages.rel_ids[static_cast<size_t>(e)];
      DEKG_CHECK(rel >= 0 && rel < num_rel_rows) << "gather index " << rel;
      for (int32_t b = 0; b < num_bases; ++b) {
        coeff_cols[static_cast<size_t>(b)].Data()[e] =
            coeff_table[static_cast<size_t>(rel * num_bases + b)];
      }
    }

    Tensor gate;  // [m, 1] when edge attention is on
    if (config_.edge_attention) {
      // Fused attention logits: per message, the dot product the chain
      // spells as MatMul(Concat({h_src, h_dst, rel, target}), w). The
      // kernel materializes each concat row into a scratch buffer and
      // reduces it with the same LaneDotF32 that MatMul's n == 1 path
      // runs, so the two formulations stay bit-identical under the
      // fixed-lane contract.
      Tensor logits(Shape{m, 1});
      FusedAttentionLogits(messages.src_ids, messages.dst_ids,
                           messages.rel_ids, messages.target_ids, h.Data(),
                           din, att_rel_.value().Data(),
                           att_target_rel_.value().Data(),
                           config_.attention_rel_dim,
                           att_weight_[l].value().Data(),
                           att_bias_[l].value().Data()[0], logits.Data());
      gate = dekg::Sigmoid(logits);
    }

    // Fused message sweep, messages in list order: mix the basis
    // transforms of the source row with the per-edge coefficients (the
    // chain's ScaleRows + Add left-fold), apply the gate, and scatter-add
    // into the destination row.
    std::vector<const float*> pt(static_cast<size_t>(num_bases));
    std::vector<const float*> pc(static_cast<size_t>(num_bases));
    for (int32_t b = 0; b < num_bases; ++b) {
      pt[static_cast<size_t>(b)] = transformed[static_cast<size_t>(b)].Data();
      pc[static_cast<size_t>(b)] = coeff_cols[static_cast<size_t>(b)].Data();
    }
    float* pagg = aggregated.Data();
    FusedMessageSweep(messages.src_ids, messages.dst_ids, pt, pc,
                      config_.edge_attention ? gate.Data() : nullptr, dout,
                      pagg);
    // Mean aggregation (ScaleRows by inverse in-degree): per-row scale,
    // no reduction, so the lane loop changes nothing.
    const float* pinv = messages.inv_indegree.Data();
    for (int64_t i = 0; i < num_nodes; ++i) {
      lanes::LaneScaleF32(pagg + i * dout, pinv[i], dout);
    }
    if (saved != nullptr) {
      saved->transformed = std::move(transformed);
      saved->coeff_cols = std::move(coeff_cols);
      saved->gate = std::move(gate);
    }
  }
  Tensor self = dekg::MatMul(h, layer.self_weight.value());
  // Epilogue in one pass, in place over `self`: per element the
  // expression Relu(Add(Add(self, aggregated), bias)) evaluates.
  float* ps = self.Data();
  const float* pagg = aggregated.Data();
  const float* pbias = layer.bias.value().Data();
  auto epilogue = [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      for (int64_t j = 0; j < dout; ++j) {
        const float v = (ps[i * dout + j] + pagg[i * dout + j]) + pbias[j];
        ps[i * dout + j] = v > 0.0f ? v : 0.0f;
      }
    }
  };
  if (num_nodes * dout >= tune::kParallelElementwiseMin) {
    ParallelFor(0, num_nodes, /*grain=*/0, epilogue);
  } else {
    epilogue(0, num_nodes);
  }
  return self;
}

namespace {

// LayerOp's backward. The per-op chain the op replaces is
//   T_b = h @ B_b;  c_b = Gather(coeff, rel) @ sel_b;
//   msg = Σ_b ScaleRows(Gather(T_b, src), c_b)  (left fold);
//   gate = σ(Concat(h[src], h[dst], att_rel[rel], att_target[tgt]) @ w + a);
//   agg = ScaleRows(ScatterSum(ScaleRows(msg, gate), dst), inv_indegree);
//   out = Relu(h @ W_self + agg + bias)
// and every term below is computed with the kernel and element order of
// that chain's backward. Parent layout: h, the num_bases bases, coeff,
// self weight, bias, then (attention) w, a, att_rel, att_target.
void LayerBackward(VarImpl* node, const RgcnMessages& msgs,
                   const std::vector<Tensor>& transformed,
                   const std::vector<Tensor>& coeff_cols, const Tensor& gate,
                   int64_t num_bases, bool attention, int64_t att_dim) {
  const std::vector<std::shared_ptr<VarImpl>>& parents = node->parents;
  VarImpl* h = parents[0].get();
  VarImpl* coeff = parents[static_cast<size_t>(num_bases) + 1].get();
  VarImpl* self_weight = parents[static_cast<size_t>(num_bases) + 2].get();
  VarImpl* bias = parents[static_cast<size_t>(num_bases) + 3].get();
  const Tensor& hv = h->value;
  const Tensor& out = node->value;
  const int64_t n = hv.dim(0);
  const int64_t din = hv.dim(1);
  const int64_t dout = out.dim(1);
  const int64_t m = static_cast<int64_t>(msgs.src_ids.size());

  // Relu: out > 0 exactly where the pre-activation is > 0.
  Tensor g_pre(out.shape());
  {
    const float* po = out.Data();
    const float* pg = node->grad.Data();
    float* pd = g_pre.Data();
    for (int64_t i = 0; i < g_pre.numel(); ++i) {
      pd[i] = po[i] > 0.0f ? pg[i] : 0.0f;
    }
  }
  // The row-broadcast bias reduces over rows (a [1] bias over all).
  AccumulateInto(bias, bias->value.numel() == 1
                           ? Tensor(bias->value.shape(), {SumAll(g_pre)})
                           : SumCols(g_pre));

  const Tensor ht = Transpose(hv);
  // h's terms in the order the chain's reverse-topological sweep adds
  // them: h[dst] gather, h[src] gather, T_{B-1} ... T_0, self transform.
  std::vector<Tensor> h_terms;
  if (m > 0) {
    Tensor g_agg(Shape{n, dout});
    {
      const float* pg = g_pre.Data();
      const float* pinv = msgs.inv_indegree.Data();
      float* pa = g_agg.Data();
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < dout; ++j) {
          pa[i * dout + j] = pg[i * dout + j] * pinv[i];
        }
      }
    }
    std::vector<Tensor> d_transformed;
    std::vector<Tensor> d_coeff_cols;
    std::vector<const float*> pt, pc;
    std::vector<float*> pdt, pdc;
    for (int64_t b = 0; b < num_bases; ++b) {
      d_transformed.push_back(Tensor::Zeros(Shape{n, dout}));
      d_coeff_cols.push_back(Tensor(Shape{m}));
      pt.push_back(transformed[static_cast<size_t>(b)].Data());
      pc.push_back(coeff_cols[static_cast<size_t>(b)].Data());
      pdt.push_back(d_transformed.back().Data());
      pdc.push_back(d_coeff_cols.back().Data());
    }
    Tensor g_gate = attention ? Tensor(Shape{m, 1}) : Tensor();
    FusedMessageSweepBackward(msgs.src_ids, msgs.dst_ids, pt, pc,
                              attention ? gate.Data() : nullptr,
                              g_agg.Data(), dout, pdt, pdc, g_gate.Data());

    if (coeff->requires_grad) {
      // c_b = PEC @ sel_b hands PEC the k == 1 products 0 + dc_b * sel_b,
      // c_{B-1}'s first; the coefficient gather then scatters PEC's rows.
      Tensor d_coeff = Tensor::Zeros(coeff->value.shape());
      float* pd = d_coeff.Data();
      for (int64_t e = 0; e < m; ++e) {
        float* row = pd + msgs.rel_ids[static_cast<size_t>(e)] * num_bases;
        for (int64_t col = 0; col < num_bases; ++col) {
          float v = 0.0f + pdc[static_cast<size_t>(num_bases - 1)][e] *
                               (col == num_bases - 1 ? 1.0f : 0.0f);
          for (int64_t b = num_bases - 2; b >= 0; --b) {
            v += 0.0f + pdc[static_cast<size_t>(b)][e] *
                            (col == b ? 1.0f : 0.0f);
          }
          row[col] += v;
        }
      }
      coeff->AccumulateGrad(d_coeff);
    }

    if (attention) {
      VarImpl* att_w = parents[static_cast<size_t>(num_bases) + 4].get();
      VarImpl* att_b = parents[static_cast<size_t>(num_bases) + 5].get();
      VarImpl* att_rel = parents[static_cast<size_t>(num_bases) + 6].get();
      VarImpl* att_target = parents[static_cast<size_t>(num_bases) + 7].get();
      Tensor g_logit(Shape{m, 1});
      {
        const float* pgg = g_gate.Data();
        const float* py = gate.Data();
        float* pl = g_logit.Data();
        for (int64_t e = 0; e < m; ++e) {
          pl[e] = pgg[e] * py[e] * (1.0f - py[e]);
        }
      }
      Tensor d_src, d_dst;
      if (h->requires_grad) {
        d_src = Tensor::Zeros(Shape{n, din});
        d_dst = Tensor::Zeros(Shape{n, din});
      }
      Tensor d_rel = Tensor::Zeros(att_rel->value.shape());
      Tensor d_target = Tensor::Zeros(att_target->value.shape());
      Tensor d_w(att_w->value.shape());
      FusedAttentionLogitsBackward(
          msgs.src_ids, msgs.dst_ids, msgs.rel_ids, msgs.target_ids,
          hv.Data(), din, att_rel->value.Data(), att_target->value.Data(),
          att_dim, att_w->value.Data(), g_logit.Data(),
          h->requires_grad ? d_src.Data() : nullptr,
          h->requires_grad ? d_dst.Data() : nullptr, d_rel.Data(),
          d_target.Data(), d_w.Data());
      AccumulateInto(att_w, d_w);
      AccumulateInto(att_b, Tensor(att_b->value.shape(), {SumAll(g_logit)}));
      AccumulateInto(att_rel, d_rel);
      AccumulateInto(att_target, d_target);
      if (h->requires_grad) {
        h_terms.push_back(std::move(d_dst));
        h_terms.push_back(std::move(d_src));
      }
    }

    for (int64_t b = num_bases - 1; b >= 0; --b) {
      VarImpl* basis = parents[static_cast<size_t>(b) + 1].get();
      const Tensor& dt = d_transformed[static_cast<size_t>(b)];
      if (h->requires_grad) {
        h_terms.push_back(MatMul(dt, Transpose(basis->value)));
      }
      AccumulateInto(basis, MatMul(ht, dt));
    }
  }
  if (h->requires_grad) {
    h_terms.push_back(MatMul(g_pre, Transpose(self_weight->value)));
  }
  AccumulateInto(self_weight, MatMul(ht, g_pre));
  // One AccumulateGrad per term: under jk_concat h already holds the
  // readout's term, and a pre-summed add would round differently.
  for (const Tensor& term : h_terms) h->AccumulateGrad(term);
}

}  // namespace

ag::Var RgcnEncoder::LayerOp(size_t l, const ag::Var& h,
                             std::shared_ptr<const RgcnMessages> messages)
    const {
  const Layer& layer = layers_[l];
  LayerSaved saved;
  Tensor out = FusedLayerForward(
      l, h.value(),
      MessageView{messages->src_ids, messages->dst_ids, messages->rel_ids,
                  messages->target_ids, messages->inv_indegree},
      &saved);
  std::vector<ag::Var> parents = {h};
  parents.insert(parents.end(), layer.bases.begin(), layer.bases.end());
  parents.push_back(layer.coefficients);
  parents.push_back(layer.self_weight);
  parents.push_back(layer.bias);
  if (config_.edge_attention) {
    parents.push_back(att_weight_[l]);
    parents.push_back(att_bias_[l]);
    parents.push_back(att_rel_);
    parents.push_back(att_target_rel_);
  }
  return ag::internal::MakeNode(
      std::move(out), std::move(parents),
      [messages = std::move(messages), saved = std::move(saved),
       num_bases = static_cast<int64_t>(config_.num_bases),
       attention = config_.edge_attention,
       att_dim = static_cast<int64_t>(config_.attention_rel_dim)](
          VarImpl* node) {
        LayerBackward(node, *messages, saved.transformed, saved.coeff_cols,
                      saved.gate, num_bases, attention, att_dim);
      });
}

RgcnBatchOutput RgcnEncoder::ForwardBatch(
    const PackedSubgraphBatch& batch) const {
  const int64_t total_nodes = batch.total_nodes();
  DEKG_CHECK_GT(batch.size(), 0);

  // Packed node features: graph g's rows are exactly NodeFeatures(g)
  // (feature construction is per-node, so concatenation is trivially
  // value-preserving).
  Tensor features(Shape{total_nodes, input_dim()});
  const int32_t span = config_.num_hops + 1;
  for (int64_t gi = 0; gi < batch.size(); ++gi) {
    const Subgraph& g = *batch.graphs[static_cast<size_t>(gi)];
    const int64_t base = batch.node_offsets[static_cast<size_t>(gi)];
    for (size_t i = 0; i < g.nodes.size(); ++i) {
      const SubgraphNode& node = g.nodes[i];
      const int64_t row = base + static_cast<int64_t>(i);
      if (node.dist_head >= 0 && node.dist_head <= config_.num_hops) {
        features.At(row, node.dist_head) = 1.0f;
      }
      if (node.dist_tail >= 0 && node.dist_tail <= config_.num_hops) {
        features.At(row, span + node.dist_tail) = 1.0f;
      }
    }
  }

  // Per-node inverse in-degree over the packed message list. Messages
  // never cross segment boundaries, so each row's degree equals its
  // degree in the sequential per-graph forward.
  const Tensor inv_indegree = InvIndegree(batch.dst_ids, total_nodes);
  const MessageView messages{batch.src_ids, batch.dst_ids, batch.rel_ids,
                             batch.msg_target_ids, inv_indegree};
  Tensor h = std::move(features);
  std::vector<Tensor> layer_outputs;
  for (size_t l = 0; l < layers_.size(); ++l) {
    h = FusedLayerForward(l, h, messages, /*saved=*/nullptr);
    if (config_.jk_concat) layer_outputs.push_back(h);
  }

  Tensor readout =
      config_.jk_concat ? dekg::Concat(layer_outputs, /*axis=*/1) : h;
  std::vector<int64_t> head_rows;
  std::vector<int64_t> tail_rows;
  head_rows.reserve(static_cast<size_t>(batch.size()));
  tail_rows.reserve(static_cast<size_t>(batch.size()));
  for (int64_t g = 0; g < batch.size(); ++g) {
    head_rows.push_back(batch.head_row(g));
    tail_rows.push_back(batch.tail_row(g));
  }
  RgcnBatchOutput out;
  out.graph_reprs = dekg::SegmentMeanRows(readout, batch.node_offsets);
  out.head_reprs = dekg::GatherRows(readout, head_rows);
  out.tail_reprs = dekg::GatherRows(readout, tail_rows);
  out.node_states = std::move(readout);
  return out;
}

uint64_t RgcnEncoder::FrozenDenseParamCount() const {
  uint64_t total = 0;
  for (const Layer& layer : layers_) {
    for (const ag::Var& basis : layer.bases) {
      total += static_cast<uint64_t>(basis.value().numel());
    }
    total += static_cast<uint64_t>(layer.self_weight.value().numel());
  }
  return total;
}

}  // namespace dekg::gnn
