// Relational GCN encoder over extracted subgraphs (GSM's "Topological
// Information Modeling", Sec. IV-C3): an L-layer message-passing network
// with basis-decomposed relation transforms and GraIL-style edge attention
// conditioned on the target relation. Produces per-node states, the
// average-pooled whole-subgraph representation (Eq. 10), and the head/tail
// representations used by the scorer (Eq. 11).
#ifndef DEKG_GNN_RGCN_H_
#define DEKG_GNN_RGCN_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "gnn/packed_batch.h"
#include "graph/subgraph.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace dekg::gnn {

struct RgcnConfig {
  int32_t num_relations = 0;  // R; inverse relations are added internally
  int32_t num_hops = 2;       // t; input label dim is 2 * (t + 1)
  int32_t hidden_dim = 32;
  int32_t num_layers = 2;     // L
  int32_t num_bases = 4;      // basis decomposition of relation transforms
  float edge_dropout = 0.5;   // beta: fraction of edges dropped per forward
  bool edge_attention = true;
  int32_t attention_rel_dim = 8;
  // Jumping-knowledge style readout (GraIL's choice): node representations
  // concatenate every layer's output instead of using only the last layer.
  bool jk_concat = false;
};

// Output of one subgraph encoding pass.
struct RgcnOutput {
  ag::Var node_states;  // [num_nodes, output_dim()]
  ag::Var graph_repr;   // [output_dim()] (average pooling, Eq. 10)
  ag::Var head_repr;    // [1, output_dim()]
  ag::Var tail_repr;    // [1, output_dim()]
};

// Directed message list of one subgraph encoding, in the order every
// layer sweeps it: a forward message (rel r) then an inverse message
// (rel r + R) per kept stored edge. target_ids conditions each message's
// attention gate; inv_indegree [num_nodes] is the mean-aggregation scale.
struct RgcnMessages {
  std::vector<int64_t> src_ids;
  std::vector<int64_t> dst_ids;
  std::vector<int64_t> rel_ids;
  std::vector<int64_t> target_ids;
  Tensor inv_indegree;
};

// Output of one packed-batch encoding pass: row g of each matrix is the
// readout of batch graph g, bit-identical to the corresponding field of
// Forward(subgraph g, training=false). Plain tensors — the packed path is
// inference-only and runs tape-free, so no intermediate outlives the pass.
struct RgcnBatchOutput {
  Tensor node_states;  // [total_nodes, output_dim()]
  Tensor graph_reprs;  // [K, output_dim()] (per-segment average pooling)
  Tensor head_reprs;   // [K, output_dim()]
  Tensor tail_reprs;   // [K, output_dim()]
};

class RgcnEncoder : public nn::Module {
 public:
  RgcnEncoder(const RgcnConfig& config, Rng* rng);

  // Encodes one subgraph: LayerOp per layer over BuildMessages' list.
  // `target_rel` conditions the edge attention. During training, edges
  // are dropped with probability edge_dropout using *rng.
  RgcnOutput Forward(const Subgraph& subgraph, RelationId target_rel,
                     bool training, Rng* rng) const;

  // The message list Forward sweeps: one forward + inverse message pair
  // per stored edge, in edge order. With `training` and a positive
  // edge_dropout, each edge draws one Bernoulli(edge_dropout) from *rng
  // and is dropped on success.
  RgcnMessages BuildMessages(const Subgraph& subgraph, RelationId target_rel,
                             bool training, Rng* rng) const;

  // Layer l as one autograd node (DESIGN.md §8). The forward is the fused
  // pass ForwardBatch runs: attention logits, basis mix, gate and scatter
  // in one ordered sweep over the message list, so nothing of size
  // [messages, dim] is allocated. The node keeps the [n, dout] basis
  // transforms, the per-message coefficient columns and the gates; its
  // backward walks the messages with the kernels of gnn/message_kernels.h
  // and computes every parameter gradient and h's gradient bit for bit as
  // the per-op autograd chain of the same layer would, adding the h terms
  // one AccumulateGrad at a time in that chain's order.
  ag::Var LayerOp(size_t l, const ag::Var& h,
                  std::shared_ptr<const RgcnMessages> messages) const;

  // Encodes K subgraphs in one pass over the packed block-diagonal batch
  // (inference only — no edge dropout, no RNG, no autograd tape). Each
  // layer runs LayerOp's forward on the packed message list, so nothing of
  // size [messages, dim] is ever materialized. Readouts are segment-aware
  // (dekg::SegmentMeanRows + head/tail row gathers). Per-graph results
  // are bit-identical to K sequential Forward(·, training=false) calls:
  // every kernel on the hot path is row-independent or accumulates
  // strictly in index order, and a packed graph's rows/messages preserve
  // the sequential order (DESIGN.md §11).
  RgcnBatchOutput ForwardBatch(const PackedSubgraphBatch& batch) const;

  // Element count of the frozen dense transforms (bases + self weights
  // across layers). The serve STATS weight-bytes accounting is this
  // times sizeof(float).
  uint64_t FrozenDenseParamCount() const;

  // Dimension of the initial one-hot double-radius node features.
  int32_t input_dim() const { return 2 * (config_.num_hops + 1); }
  // Dimension of the produced node/graph representations (hidden_dim, or
  // num_layers * hidden_dim under jk_concat).
  int32_t output_dim() const {
    return config_.jk_concat ? config_.num_layers * config_.hidden_dim
                             : config_.hidden_dim;
  }
  const RgcnConfig& config() const { return config_; }

  // Builds the [num_nodes, input_dim] one-hot label features for a
  // subgraph (exposed for tests; one-hot(-1) is all-zero).
  Tensor NodeFeatures(const Subgraph& subgraph) const;

 private:
  // A borrowed message list: an RgcnMessages, or a packed batch's arrays
  // with their inverse in-degree.
  struct MessageView {
    const std::vector<int64_t>& src_ids;
    const std::vector<int64_t>& dst_ids;
    const std::vector<int64_t>& rel_ids;
    const std::vector<int64_t>& target_ids;
    const Tensor& inv_indegree;
  };
  // What LayerOp's backward reads besides h, the parameters and the
  // layer's output.
  struct LayerSaved {
    std::vector<Tensor> transformed;  // num_bases x [n, dout]: h @ B_b
    std::vector<Tensor> coeff_cols;   // num_bases x [m, 1]
    Tensor gate;                      // [m, 1] under edge attention
  };

  // The one layer forward (LayerOp and ForwardBatch). A non-null `saved`
  // receives the tensors the backward needs.
  Tensor FusedLayerForward(size_t l, const Tensor& h,
                           const MessageView& messages,
                           LayerSaved* saved) const;

  RgcnConfig config_;
  struct Layer {
    std::vector<ag::Var> bases;  // num_bases x [din, dout]
    ag::Var coefficients;        // [2R, num_bases]
    ag::Var self_weight;         // [din, dout]
    ag::Var bias;                // [dout]
  };
  std::vector<Layer> layers_;
  // Attention parameters (shared across layers, conditioned on target rel).
  ag::Var att_rel_;         // [2R, attention_rel_dim]
  ag::Var att_target_rel_;  // [R, attention_rel_dim]
  std::vector<ag::Var> att_weight_;  // per layer: [2*din + 2*att_dim, 1]
  std::vector<ag::Var> att_bias_;    // per layer: [1]
  // Column selectors for the basis decomposition: selector b is a
  // [num_bases, 1] one-hot picking column b of a coefficient row, built
  // once here instead of per layer×basis×call.
  std::vector<Tensor> basis_selectors_;
};

}  // namespace dekg::gnn

#endif  // DEKG_GNN_RGCN_H_
