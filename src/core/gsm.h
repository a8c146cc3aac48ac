// GSM — GNN-based Subgraph Modeling (Sec. IV-C).
//
// Wraps the R-GCN encoder over the extracted (possibly disconnected)
// subgraph around a target link and scores its topological likelihood
// (Eq. 11):
//   phi_tpo(e_i, r_k, e_j) = [h_G ⊕ h_i ⊕ h_j ⊕ r_k^tpo] W.
// The improved node labeling (keeping one-sided nodes with distance -1)
// lives in graph/subgraph.h; GSM is labeled-subgraph-in, score-out.
#ifndef DEKG_CORE_GSM_H_
#define DEKG_CORE_GSM_H_

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gnn/rgcn.h"
#include "graph/subgraph.h"
#include "nn/module.h"

namespace dekg::core {

struct GsmConfig {
  int32_t num_relations = 0;
  int32_t dim = 32;        // hidden dim of the GNN and of r^tpo
  int32_t num_hops = 2;    // t
  int32_t num_layers = 2;  // L
  int32_t num_bases = 4;
  float edge_dropout = 0.5;  // beta
  bool edge_attention = true;
  // GraIL-style jumping-knowledge readout (concatenate all GNN layers).
  bool jk_concat = false;
  // Node labeling policy; kGrail reproduces the -N ablation / the GraIL
  // baseline, kImproved is DEKG-ILP's.
  NodeLabeling labeling = NodeLabeling::kImproved;
  int32_t max_subgraph_nodes = 256;
};

// Assembly policy for packed (block-diagonal) GSM batches. Batching is a
// pure dispatch optimization — per-triple scores are bit-identical for
// every cap — so the cap trades fewer, wider GNN forwards against the
// peak size of one packed batch (DESIGN.md §11), never correctness.
struct GsmBatchOptions {
  // Maximum subgraphs per packed forward (values below 1 act as 1).
  int32_t max_batch = 8;
};

// Groups `indices` (positions into the parallel `subgraphs` array) into
// packed-batch work lists: each inner vector holds at most
// options.max_batch indices whose subgraphs share an exact (node count,
// edge count). Deterministic — groups are keyed in first-occurrence order
// and filled in index order — though scores do not depend on the
// grouping at all (packing is bitwise transparent).
std::vector<std::vector<int64_t>> GroupForPacking(
    const std::vector<const Subgraph*>& subgraphs,
    const std::vector<int64_t>& indices, const GsmBatchOptions& options);

class Gsm : public nn::Module {
 public:
  Gsm(const GsmConfig& config, Rng* rng);

  const GsmConfig& config() const { return config_; }

  // The extraction parameters Extract() runs with, as a SubgraphConfig.
  SubgraphConfig subgraph_config() const {
    SubgraphConfig sc;
    sc.num_hops = config_.num_hops;
    sc.labeling = config_.labeling;
    sc.max_nodes = config_.max_subgraph_nodes;
    return sc;
  }

  // Extracts the labeled subgraph for (head, rel, tail) from `graph`.
  Subgraph Extract(const KnowledgeGraph& graph, const Triple& triple) const;

  // Workspace-reusing form for hot loops; identical output.
  Subgraph Extract(const KnowledgeGraph& graph, const Triple& triple,
                   SubgraphWorkspace* workspace) const;

  // Extracts every triple's subgraph, splitting independent extractions
  // across `pool` (or the default pool when null); each worker owns a
  // SubgraphWorkspace. Extraction is RNG-free and deterministic, so the
  // result is identical at any thread count. Results are index-aligned
  // with `triples` — the SubgraphCache prefill consumes them in that
  // fixed order.
  std::vector<Subgraph> ExtractBatch(const KnowledgeGraph& graph,
                                     const std::vector<Triple>& triples,
                                     ThreadPool* pool = nullptr) const;

  // phi_tpo for a pre-extracted subgraph: scalar Var [1].
  ag::Var ScoreSubgraph(const Subgraph& subgraph, RelationId rel,
                        bool training, Rng* rng) const;

  // phi_tpo for K pre-extracted subgraphs in ONE packed block-diagonal
  // forward (inference only): one RgcnEncoder::ForwardBatch plus one
  // scorer matmul over the [K, 3*repr + dim] feature matrix. Entry i is
  // bit-identical to ScoreSubgraph(*subgraphs[i], rels[i],
  // training=false, ·).value().Data()[0] — see DESIGN.md §11 for the
  // argument. Subgraphs may have arbitrary, mixed sizes.
  //
  // With a non-null `qw` the encoder's dense transforms run at reduced
  // precision (quant/qkernels.h); the r^tpo rows and scorer weight stay
  // fp32 (they are O(R·dim + dim) — nothing to save). Quantized scores
  // are epsilon-close to fp32, not bitwise, but remain bit-deterministic
  // across thread counts and packings (DESIGN.md §15).
  std::vector<float> ScoreSubgraphsPacked(
      const std::vector<const Subgraph*>& subgraphs,
      const std::vector<RelationId>& rels,
      const quant::RgcnQuantWeights* qw = nullptr) const;

  // Quantizes the encoder's frozen dense transforms for serving at
  // `precision` (forwarded to RgcnEncoder::QuantizeFrozenWeights).
  quant::RgcnQuantWeights QuantizeFrozenWeights(
      quant::Precision precision) const {
    return encoder_->QuantizeFrozenWeights(precision);
  }

  // Element count of the encoder's frozen dense transforms (for the serve
  // STATS fp32 weight-bytes accounting).
  uint64_t FrozenDenseParamCount() const {
    return encoder_->FrozenDenseParamCount();
  }

  // Convenience: extract + score.
  ag::Var ScoreTriple(const KnowledgeGraph& graph, const Triple& triple,
                      bool training, Rng* rng) const;

  // Final-layer head/tail representations (for the Fig. 8 case study).
  gnn::RgcnOutput Encode(const Subgraph& subgraph, RelationId rel,
                         bool training, Rng* rng) const;

 private:
  GsmConfig config_;
  std::unique_ptr<gnn::RgcnEncoder> encoder_;
  ag::Var relation_tpo_;  // r^tpo: [R, dim]
  ag::Var score_weight_;  // W: [4 * dim, 1]
};

}  // namespace dekg::core

#endif  // DEKG_CORE_GSM_H_
