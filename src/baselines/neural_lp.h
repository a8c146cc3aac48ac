// Neural LP baseline [Yang et al., NIPS 2017]: end-to-end differentiable
// rule learning with TensorLog operators.
//
// For a query (h, q, ?) the model forward-chains a probability vector over
// entities: x_0 = one-hot(h), and for each step t = 1..T
//     x_t = sum_r a_{q,t,r} * M_r x_{t-1}
// where M_r is the (sparse) adjacency operator of relation r (both
// directions; r + R denotes the inverse) and a_{q,t,r} is a softmax
// attention over relations conditioned on the query relation q. The score
// of (h, q, t) is x_T[t] — the total weight of length-<=T relational paths
// from h to t under the learned soft rules.
//
// Like RuleN/Grail, the mechanism is path-based: for a bridging link no
// path crosses the cut, x_T[t] = 0, and the method collapses — Table I's
// "enclosing yes, bridging no" row.
//
// Simplifications vs the original: fixed path length T (no recurrent
// controller), identity-step mixing weight per step (allows shorter
// paths), trained with margin ranking like the other baselines here.
// Setting num_rule_channels > 1 upgrades the model to DRUM's multi-rule
// decomposition, which can express several distinct rule bodies per query
// relation (Neural LP's single attention chain provably cannot).
#ifndef DEKG_BASELINES_NEURAL_LP_H_
#define DEKG_BASELINES_NEURAL_LP_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "eval/evaluator.h"
#include "kg/dataset.h"
#include "nn/module.h"

namespace dekg::baselines {

struct NeuralLpConfig {
  int32_t num_relations = 0;
  int32_t num_steps = 2;  // T: maximum rule body length
  // Number of independent rule channels. 1 reproduces Neural LP's single
  // soft rule per query relation; >1 gives DRUM's low-rank multi-rule
  // decomposition [Sadeghian et al., NeurIPS 2019]: each channel chains
  // its own per-step attention and the channel masses are summed.
  int32_t num_rule_channels = 1;
};

class NeuralLp : public nn::Module, public LinkPredictor {
 public:
  NeuralLp(const NeuralLpConfig& config, uint64_t seed);

  // Differentiable score of (h, q, t) against `graph`: the soft path mass
  // x_T[t]. log(1 + mass) keeps magnitudes trainable. Safe to call from
  // several threads at once (the trainer's parallel example loop does).
  ag::Var ScoreLink(const KnowledgeGraph& graph, const Triple& triple);

  // ----- LinkPredictor -----
  std::string Name() const override { return "NeuralLP"; }
  std::vector<double> ScoreTriples(const KnowledgeGraph& inference_graph,
                                   const std::vector<Triple>& triples) override;
  // ScoreLink is read-only and thread-safe, so Evaluate ranks in parallel.
  bool SupportsConcurrentScoring() const override { return true; }
  int64_t ParameterCount() const override { return nn::Module::ParameterCount(); }

  const NeuralLpConfig& config() const { return config_; }

 private:
  struct Operators;  // per-operator edge buckets of one graph (.cc)

  // The operator buckets of `graph`, rebuilt only when it differs from the
  // last graph scored. The key is the graph's edge array and edge count:
  // views with both equal hold the same edges, and the held copy of the
  // last view keeps its edge array alive, so no other graph can reuse
  // that address while it is the key.
  std::shared_ptr<const Operators> OperatorsFor(const KnowledgeGraph& graph);

  // Attention logits: [R_query, C * T * (2R + 1)] — per query relation,
  // per rule channel, per step, a distribution over 2R directional
  // operators plus an identity ("stay") operator that admits shorter
  // paths.
  NeuralLpConfig config_;
  ag::Var attention_logits_;
  std::mutex operators_mu_;
  std::optional<KnowledgeGraph> operators_graph_;  // guarded by the mutex
  std::shared_ptr<const Operators> operators_;     // guarded by the mutex
};

}  // namespace dekg::baselines

#endif  // DEKG_BASELINES_NEURAL_LP_H_
