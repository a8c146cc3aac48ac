#include "baselines/neural_lp.h"

namespace dekg::baselines {

namespace {

// Directional edge buckets for one graph: per operator (r forward,
// r + R inverse), the source and destination node lists.
struct OperatorEdges {
  std::vector<int64_t> src;
  std::vector<int64_t> dst;
};

struct GraphOperators {
  const KnowledgeGraph* graph = nullptr;
  std::vector<OperatorEdges> ops;  // size 2R
};

// Rebuilds the operator buckets when the graph changes. Thread-compatible
// (not thread-safe), like the rest of the library.
const GraphOperators& OperatorsFor(const KnowledgeGraph& graph,
                                   int32_t num_relations,
                                   GraphOperators* cache) {
  if (cache->graph == &graph &&
      cache->ops.size() == static_cast<size_t>(2 * num_relations)) {
    return *cache;
  }
  cache->graph = &graph;
  cache->ops.assign(static_cast<size_t>(2 * num_relations), OperatorEdges{});
  for (int64_t id = 0; id < graph.num_triples(); ++id) {
    const Edge& e = graph.edge(id);
    cache->ops[static_cast<size_t>(e.rel)].src.push_back(e.src);
    cache->ops[static_cast<size_t>(e.rel)].dst.push_back(e.dst);
    cache->ops[static_cast<size_t>(e.rel + num_relations)].src.push_back(e.dst);
    cache->ops[static_cast<size_t>(e.rel + num_relations)].dst.push_back(e.src);
  }
  return *cache;
}

GraphOperators g_cache;  // single-threaded scoring cache

}  // namespace

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
  const GraphOperators& operators =
      OperatorsFor(graph, config_.num_relations, &g_cache);
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
  const bool target_present = graph.Contains(triple);
  auto filtered = [&](int32_t op) {
    OperatorEdges out = operators.ops[static_cast<size_t>(op)];
    if (!target_present ||
        (op != triple.rel && op != triple.rel + config_.num_relations)) {
      return out;
    }
    const int64_t from = op == triple.rel ? triple.head : triple.tail;
    const int64_t to = op == triple.rel ? triple.tail : triple.head;
    OperatorEdges kept;
    for (size_t i = 0; i < out.src.size(); ++i) {
      if (out.src[i] == from && out.dst[i] == to) continue;
      kept.src.push_back(out.src[i]);
      kept.dst.push_back(out.dst[i]);
    }
    return kept;
  };

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
        const OperatorEdges edges = filtered(op);
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
