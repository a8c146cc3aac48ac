// TACT baseline [Chen et al., AAAI 2021]: GraIL-style subgraph reasoning
// augmented with a relation-correlation module that models the six
// topological interaction patterns between the target relation and each
// relation incident to the endpoints ("head-to-head", "tail-to-head",
// "head-to-tail", "tail-to-tail", "parallel", "loop"). Each pattern p owns
// a learned correlation matrix C_p ∈ R^{|R|×|R|}, which is why TACT's
// parameter complexity carries the |R|^2 term the paper reports
// (O(7|R|d + 3|R|dl + |R|^2 + 2d^2)).
#ifndef DEKG_BASELINES_TACT_H_
#define DEKG_BASELINES_TACT_H_

#include <memory>
#include <string>

#include "core/gsm.h"
#include "eval/evaluator.h"
#include "kg/dataset.h"
#include "nn/module.h"

namespace dekg::baselines {

struct TactConfig {
  int32_t num_relations = 0;
  int32_t dim = 32;
  int32_t num_hops = 2;
  int32_t num_layers = 2;
};

class Tact : public nn::Module, public LinkPredictor {
 public:
  Tact(const TactConfig& config, uint64_t seed);

  // Subgraph score (GraIL labeling) + relation-correlation score. When
  // `subgraph` is non-null it must be the enclosing subgraph of `triple`
  // on `graph` (e.g. the trainer's cached positive subgraph), which is
  // scored instead of re-extracting; extraction is deterministic, so both
  // forms give bit-identical scores.
  ag::Var ScoreLink(const KnowledgeGraph& graph, const Triple& triple,
                    bool training, Rng* rng,
                    const Subgraph* subgraph = nullptr);

  // The GSM whose extraction ScoreLink uses; core::Trainer extracts its
  // subgraph cache's misses through it.
  const core::Gsm* gsm() const { return gsm_.get(); }

  // ----- LinkPredictor -----
  std::string Name() const override { return "TACT"; }
  std::vector<double> ScoreTriples(const KnowledgeGraph& inference_graph,
                                   const std::vector<Triple>& triples) override;
  int64_t ParameterCount() const override { return nn::Module::ParameterCount(); }

  static constexpr int kNumPatterns = 6;

 private:
  // Correlation score of the target relation against the pattern-bucketed
  // incident-relation histograms of the endpoints, computed within the
  // enclosing subgraph.
  ag::Var CorrelationScore(const Subgraph& subgraph, const Triple& triple);

  TactConfig config_;
  std::unique_ptr<core::Gsm> gsm_;
  ag::Var correlation_[kNumPatterns];  // each [R, R]
  Rng eval_rng_;
};

}  // namespace dekg::baselines

#endif  // DEKG_BASELINES_TACT_H_
