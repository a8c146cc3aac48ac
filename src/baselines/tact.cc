#include "baselines/tact.h"

#include <string>

namespace dekg::baselines {

Tact::Tact(const TactConfig& config, uint64_t seed)
    : config_(config), eval_rng_(seed ^ 0x7ac7) {
  Rng rng(seed);
  core::GsmConfig gsm;
  gsm.num_relations = config_.num_relations;
  gsm.dim = config_.dim;
  gsm.num_hops = config_.num_hops;
  gsm.num_layers = config_.num_layers;
  gsm.labeling = NodeLabeling::kGrail;  // TACT builds on GraIL's subgraphs
  gsm_ = std::make_unique<core::Gsm>(gsm, &rng);
  RegisterChild("gsm", gsm_.get());
  for (int p = 0; p < kNumPatterns; ++p) {
    correlation_[p] = RegisterParameter(
        "correlation" + std::to_string(p),
        Tensor::Uniform(Shape{config_.num_relations, config_.num_relations},
                        -0.1f, 0.1f, &rng));
  }
}

ag::Var Tact::CorrelationScore(const Subgraph& subgraph,
                               const Triple& triple) {
  // Pattern-bucketed histograms over relations incident to the endpoints
  // *within the enclosing subgraph* — TACT's relational correlation graph
  // is built over the GraIL subgraph, so the module inherits the
  // topological limitation: a bridging link's subgraph has no edges and
  // the correlation score degenerates to a constant.
  // Patterns (target r as h -> t):
  //   0 head-to-head: r' outgoing from h   (shares head with target)
  //   1 tail-to-head: r' incoming to h
  //   2 head-to-tail: r' outgoing from t
  //   3 tail-to-tail: r' incoming to t
  //   4 parallel:     r' also links h -> t
  //   5 loop:         r' links t -> h
  Tensor histograms[kNumPatterns];
  for (auto& h : histograms) h = Tensor::Zeros(Shape{1, config_.num_relations});
  auto bump = [&](int pattern, RelationId rel) {
    histograms[pattern].At(0, rel) += 1.0f;
  };
  const int32_t head_local = subgraph.head_local();
  const int32_t tail_local = subgraph.tail_local();
  for (const SubgraphEdge& e : subgraph.edges) {
    if (e.src == head_local && e.dst == tail_local) {
      bump(4, e.rel);
    } else if (e.src == tail_local && e.dst == head_local) {
      bump(5, e.rel);
    } else if (e.src == head_local) {
      bump(0, e.rel);
    } else if (e.dst == head_local) {
      bump(1, e.rel);
    } else if (e.src == tail_local) {
      bump(2, e.rel);
    } else if (e.dst == tail_local) {
      bump(3, e.rel);
    }
  }
  ag::Var score;
  for (int p = 0; p < kNumPatterns; ++p) {
    const float total = SumAll(histograms[p]);
    if (total <= 0.0f) continue;
    histograms[p].ScaleInPlace(1.0f / total);
    // <C_p[r, :], histogram_p>.
    ag::Var row = ag::GatherRows(correlation_[p], {triple.rel});
    ag::Var term = ag::SumAll(ag::Mul(row, ag::Var::Constant(histograms[p])));
    score = score.defined() ? ag::Add(score, term) : term;
  }
  if (!score.defined()) score = ag::Var::Constant(Tensor::Scalar(0.0f));
  return score;
}

ag::Var Tact::ScoreLink(const KnowledgeGraph& graph, const Triple& triple,
                        bool training, Rng* rng, const Subgraph* subgraph) {
  Subgraph extracted;
  if (subgraph == nullptr) {
    extracted = gsm_->Extract(graph, triple);
    subgraph = &extracted;
  }
  ag::Var tpo = gsm_->ScoreSubgraph(*subgraph, triple.rel, training, rng);
  ag::Var corr = CorrelationScore(*subgraph, triple);
  return ag::Add(tpo, corr);
}

std::vector<double> Tact::ScoreTriples(const KnowledgeGraph& inference_graph,
                                       const std::vector<Triple>& triples) {
  std::vector<double> scores;
  scores.reserve(triples.size());
  for (const Triple& t : triples) {
    ag::Var s = ScoreLink(inference_graph, t, /*training=*/false, &eval_rng_);
    scores.push_back(static_cast<double>(s.value().Data()[0]));
  }
  return scores;
}

}  // namespace dekg::baselines
