#include "core/gsm.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace dekg::core {

std::vector<std::vector<int64_t>> GroupForPacking(
    const std::vector<const Subgraph*>& subgraphs,
    const std::vector<int64_t>& indices, const GsmBatchOptions& options) {
  std::vector<std::vector<int64_t>> batches;
  if (indices.empty()) return batches;
  const int64_t cap = std::max<int32_t>(options.max_batch, 1);

  // (node, edge) count -> position of that size's open (not yet full)
  // batch.
  std::unordered_map<uint64_t, size_t> open;
  for (int64_t idx : indices) {
    const Subgraph& s = *subgraphs[static_cast<size_t>(idx)];
    const uint64_t key = (static_cast<uint64_t>(s.nodes.size()) << 32) |
                         static_cast<uint64_t>(s.edges.size() & 0xffffffffu);
    auto it = open.find(key);
    if (it == open.end() ||
        static_cast<int64_t>(batches[it->second].size()) >= cap) {
      open[key] = batches.size();
      batches.emplace_back();
      batches.back().reserve(static_cast<size_t>(cap));
      batches.back().push_back(idx);
    } else {
      batches[it->second].push_back(idx);
    }
  }
  return batches;
}

Gsm::Gsm(const GsmConfig& config, Rng* rng) : config_(config) {
  DEKG_CHECK_GT(config_.num_relations, 0);
  gnn::RgcnConfig rgcn;
  rgcn.num_relations = config_.num_relations;
  rgcn.num_hops = config_.num_hops;
  rgcn.hidden_dim = config_.dim;
  rgcn.num_layers = config_.num_layers;
  rgcn.num_bases = config_.num_bases;
  rgcn.edge_dropout = config_.edge_dropout;
  rgcn.edge_attention = config_.edge_attention;
  rgcn.jk_concat = config_.jk_concat;
  encoder_ = std::make_unique<gnn::RgcnEncoder>(rgcn, rng);
  RegisterChild("encoder", encoder_.get());
  relation_tpo_ = RegisterParameter(
      "relation_tpo",
      Tensor::XavierUniform(Shape{config_.num_relations, config_.dim}, rng));
  // Scorer input: [h_G | h_i | h_j | r_tpo]; node/graph reprs widen under
  // jk_concat while r_tpo stays at dim.
  const int64_t repr = encoder_->output_dim();
  score_weight_ = RegisterParameter(
      "score_weight",
      Tensor::XavierUniform(Shape{3 * repr + config_.dim, 1}, rng));
}

Subgraph Gsm::Extract(const KnowledgeGraph& graph, const Triple& triple) const {
  // Thread-local reusable workspace: no per-call O(num_entities)
  // allocation, and stamped fields make reuse across graphs safe.
  return Extract(graph, triple, GetThreadLocalSubgraphWorkspace());
}

Subgraph Gsm::Extract(const KnowledgeGraph& graph, const Triple& triple,
                      SubgraphWorkspace* workspace) const {
  return ExtractSubgraph(graph, triple.head, triple.tail, triple.rel,
                         subgraph_config(), workspace);
}

gnn::RgcnOutput Gsm::Encode(const Subgraph& subgraph, RelationId rel,
                            bool training, Rng* rng) const {
  return encoder_->Forward(subgraph, rel, training, rng);
}

ag::Var Gsm::ScoreSubgraph(const Subgraph& subgraph, RelationId rel,
                           bool training, Rng* rng) const {
  gnn::RgcnOutput enc = encoder_->Forward(subgraph, rel, training, rng);
  ag::Var graph_row =
      ag::Reshape(enc.graph_repr, Shape{1, encoder_->output_dim()});
  ag::Var rel_row = ag::GatherRows(relation_tpo_, {rel});
  ag::Var features = ag::Concat(
      {graph_row, enc.head_repr, enc.tail_repr, rel_row}, /*axis=*/1);
  return ag::SumAll(ag::MatMul(features, score_weight_));
}

std::vector<float> Gsm::ScoreSubgraphsPacked(
    const std::vector<const Subgraph*>& subgraphs,
    const std::vector<RelationId>& rels) const {
  gnn::PackedSubgraphBatch batch =
      gnn::PackedSubgraphBatch::Pack(subgraphs, rels, config_.num_relations);
  gnn::RgcnBatchOutput enc = encoder_->ForwardBatch(batch);
  std::vector<int64_t> rel_rows_idx(rels.begin(), rels.end());
  Tensor rel_rows = dekg::GatherRows(relation_tpo_.value(), rel_rows_idx);
  // Row g of `features` equals the sequential ScoreSubgraph feature row
  // for graph g; MatMul rows are computed independently, so score row g
  // matches the sequential scalar bit-for-bit (SumAll over a [1, 1]
  // product is the identity). Tape-free like ForwardBatch: the same
  // tensor kernels the Var path wraps, on the same inputs.
  Tensor features = dekg::Concat(
      {enc.graph_reprs, enc.head_reprs, enc.tail_reprs, rel_rows},
      /*axis=*/1);
  Tensor values = dekg::MatMul(features, score_weight_.value());
  std::vector<float> out(static_cast<size_t>(batch.size()));
  for (int64_t g = 0; g < batch.size(); ++g) {
    out[static_cast<size_t>(g)] = values.Data()[g];
  }
  return out;
}

ag::Var Gsm::ScoreTriple(const KnowledgeGraph& graph, const Triple& triple,
                         bool training, Rng* rng) const {
  Subgraph subgraph = Extract(graph, triple);
  return ScoreSubgraph(subgraph, triple.rel, training, rng);
}

std::vector<Subgraph> Gsm::ExtractBatch(const KnowledgeGraph& graph,
                                        const std::vector<Triple>& triples,
                                        ThreadPool* pool) const {
  std::vector<Subgraph> out(triples.size());
  const auto body = [&](int64_t begin, int64_t end) {
    SubgraphWorkspace* workspace = GetThreadLocalSubgraphWorkspace();
    for (int64_t i = begin; i < end; ++i) {
      out[static_cast<size_t>(i)] =
          Extract(graph, triples[static_cast<size_t>(i)], workspace);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, static_cast<int64_t>(triples.size()), /*grain=*/0,
                      body);
  } else {
    ParallelFor(0, static_cast<int64_t>(triples.size()), /*grain=*/0, body);
  }
  return out;
}

}  // namespace dekg::core
