#include "baselines/neural_lp.h"

namespace dekg::baselines {

namespace {

// Directional edges of one operator (r forward, r + R inverse).
struct OperatorEdges {
  std::vector<int64_t> src;
  std::vector<int64_t> dst;
};

// The graph's edge array, or null when it has no edges (then any two
// graphs' buckets are equally empty).
const Edge* EdgeArray(const KnowledgeGraph& graph) {
  return graph.num_triples() > 0 ? &graph.edge(0) : nullptr;
}

}  // namespace

struct NeuralLp::Operators {
  std::vector<OperatorEdges> ops;  // size 2R
};

std::shared_ptr<const NeuralLp::Operators> NeuralLp::OperatorsFor(
    const KnowledgeGraph& graph) {
  std::lock_guard<std::mutex> lock(operators_mu_);
  if (operators_graph_.has_value() &&
      operators_graph_->num_triples() == graph.num_triples() &&
      EdgeArray(*operators_graph_) == EdgeArray(graph)) {
    return operators_;
  }
  const int32_t num_relations = config_.num_relations;
  auto built = std::make_shared<Operators>();
  built->ops.resize(static_cast<size_t>(2 * num_relations));
  for (int64_t id = 0; id < graph.num_triples(); ++id) {
    const Edge& e = graph.edge(id);
    OperatorEdges& forward = built->ops[static_cast<size_t>(e.rel)];
    forward.src.push_back(e.src);
    forward.dst.push_back(e.dst);
    OperatorEdges& inverse =
        built->ops[static_cast<size_t>(e.rel + num_relations)];
    inverse.src.push_back(e.dst);
    inverse.dst.push_back(e.src);
  }
  operators_graph_.emplace(graph);
  operators_ = std::move(built);
  return operators_;
}

NeuralLp::NeuralLp(const NeuralLpConfig& config, uint64_t seed)
    : config_(config) {
  DEKG_CHECK_GT(config_.num_relations, 0);
  DEKG_CHECK_GE(config_.num_steps, 1);
  DEKG_CHECK_GE(config_.num_rule_channels, 1);
  Rng rng(seed);
  const int64_t ops_per_step = 2 * config_.num_relations + 1;
  attention_logits_ = RegisterParameter(
      "attention_logits",
      Tensor::Uniform(
          Shape{config_.num_relations, config_.num_rule_channels *
                                           config_.num_steps * ops_per_step},
          -0.1f, 0.1f, &rng));
}

ag::Var NeuralLp::ScoreLink(const KnowledgeGraph& graph, const Triple& triple) {
  const int32_t r2 = 2 * config_.num_relations;
  const int64_t ops_per_step = r2 + 1;
  const std::shared_ptr<const Operators> operators = OperatorsFor(graph);
  const int64_t n = graph.num_entities();

  // Per-channel, per-step attention over operators, conditioned on the
  // query relation. Rows: channel-major, then step.
  ag::Var logits_row = ag::GatherRows(attention_logits_, {triple.rel});
  ag::Var attention = ag::SoftmaxRows(ag::Reshape(
      logits_row,
      Shape{config_.num_rule_channels * config_.num_steps, ops_per_step}));

  Tensor x0 = Tensor::Zeros(Shape{n, 1});
  x0.At(triple.head, 0) = 1.0f;

  // Exclude the query triple itself (both directions) from propagation, or
  // the model would learn the degenerate rule q => q from training
  // positives that are present as edges.
  std::vector<const OperatorEdges*> buckets(static_cast<size_t>(r2));
  for (int32_t op = 0; op < r2; ++op) {
    buckets[static_cast<size_t>(op)] =
        &operators->ops[static_cast<size_t>(op)];
  }
  OperatorEdges kept[2];  // the query's forward and inverse operators
  if (graph.Contains(triple)) {
    for (int32_t d = 0; d < 2; ++d) {
      const int32_t op = triple.rel + d * config_.num_relations;
      const int64_t from = d == 0 ? triple.head : triple.tail;
      const int64_t to = d == 0 ? triple.tail : triple.head;
      const OperatorEdges& all = *buckets[static_cast<size_t>(op)];
      for (size_t i = 0; i < all.src.size(); ++i) {
        if (all.src[i] == from && all.dst[i] == to) continue;
        kept[d].src.push_back(all.src[i]);
        kept[d].dst.push_back(all.dst[i]);
      }
      buckets[static_cast<size_t>(op)] = &kept[d];
    }
  }

  // Forward chaining from the head entity, once per rule channel; channel
  // masses sum (DRUM). A single channel is exactly Neural LP.
  ag::Var total_mass;
  for (int32_t channel = 0; channel < config_.num_rule_channels; ++channel) {
    ag::Var x = ag::Var::Constant(x0);
    for (int32_t step = 0; step < config_.num_steps; ++step) {
      const int64_t row = channel * config_.num_steps + step;
      ag::Var step_att = ag::SliceRows(attention, row, row + 1);  // [1, ops]
      ag::Var next;
      for (int32_t op = 0; op < r2; ++op) {
        const OperatorEdges& edges = *buckets[static_cast<size_t>(op)];
        if (edges.src.empty()) continue;
        // a_{channel, step, op} as a scalar Var via a selector column.
        Tensor selector = Tensor::Zeros(Shape{ops_per_step, 1});
        selector.At(op, 0) = 1.0f;
        ag::Var a = ag::MatMul(step_att, ag::Var::Constant(selector));  // [1,1]
        ag::Var gathered = ag::GatherRows(x, edges.src);
        ag::Var propagated =
            ag::ScatterSumRows(ag::Mul(gathered, a), edges.dst, n);
        next = next.defined() ? ag::Add(next, propagated) : propagated;
      }
      // Identity operator (index r2): lets the model use shorter rules.
      {
        Tensor selector = Tensor::Zeros(Shape{ops_per_step, 1});
        selector.At(r2, 0) = 1.0f;
        ag::Var a = ag::MatMul(step_att, ag::Var::Constant(selector));
        ag::Var stay = ag::Mul(x, a);
        next = next.defined() ? ag::Add(next, stay) : stay;
      }
      x = next;
    }
    // Path mass that reached the tail through this channel.
    ag::Var tail_mass = ag::GatherRows(x, {triple.tail});
    total_mass =
        total_mass.defined() ? ag::Add(total_mass, tail_mass) : tail_mass;
  }
  return ag::SumAll(ag::Log(ag::AddScalar(total_mass, 1.0f)));
}

std::vector<double> NeuralLp::ScoreTriples(
    const KnowledgeGraph& inference_graph, const std::vector<Triple>& triples) {
  std::vector<double> scores;
  scores.reserve(triples.size());
  for (const Triple& t : triples) {
    scores.push_back(static_cast<double>(
        ScoreLink(inference_graph, t).value().Data()[0]));
  }
  return scores;
}

}  // namespace dekg::baselines
