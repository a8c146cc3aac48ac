#include "baselines/gen.h"

#include "core/trainer.h"

namespace dekg::baselines {

Gen::Gen(const KgeConfig& config) : KgeModel("GEN", config) {
  entities_ = RegisterParameter(
      "entities", Tensor::XavierUniform(
                      Shape{config_.num_entities, config_.dim}, &init_rng_));
  relations_ = RegisterParameter(
      "relations", Tensor::XavierUniform(
                       Shape{config_.num_relations, config_.dim}, &init_rng_));
  // Relation-conditioned gate on neighbor embeddings (initialized near 1).
  rel_gate_ = RegisterParameter(
      "rel_gate", Tensor::Uniform(Shape{config_.num_relations, config_.dim},
                                  0.8f, 1.2f, &init_rng_));
  agg_weight_ = RegisterParameter(
      "agg_weight",
      Tensor::XavierUniform(Shape{config_.dim, config_.dim}, &init_rng_));
  agg_bias_ = RegisterParameter("agg_bias", Tensor::Zeros(Shape{config_.dim}));
}

ag::Var Gen::Aggregate(const KnowledgeGraph& graph, EntityId entity) {
  std::vector<int64_t> neighbor_ids;
  std::vector<int64_t> rel_ids;
  for (int32_t eid : graph.IncidentEdges(entity)) {
    const Edge& e = graph.edge(eid);
    neighbor_ids.push_back(e.src == entity ? e.dst : e.src);
    rel_ids.push_back(e.rel);
  }
  if (neighbor_ids.empty()) {
    // Isolated entity: nothing to aggregate; fall back to its own row
    // (random for unseen entities, as in the paper's analysis).
    return ag::GatherRows(entities_, {entity});
  }
  // Relation-conditioned transform of neighbor *entity* embeddings. With
  // random neighbor rows (the DEKG case) the product is direction-random,
  // so no relation-signature signal leaks — matching real GEN, whose
  // reconstruction degrades to noise without seen neighbors.
  ag::Var neighbors = ag::GatherRows(entities_, neighbor_ids);  // [N, d]
  ag::Var gates = ag::GatherRows(rel_gate_, rel_ids);           // [N, d]
  ag::Var combined = ag::Mul(neighbors, gates);
  ag::Var mean = ag::MeanOverRows(combined);  // [d]
  ag::Var row = ag::Reshape(mean, Shape{1, config_.dim});
  return ag::Tanh(ag::Add(ag::MatMul(row, agg_weight_), agg_bias_));
}

ag::Var Gen::ScoreBatch(const std::vector<Triple>& triples) {
  std::vector<int64_t> heads, rels, tails;
  for (const Triple& t : triples) {
    heads.push_back(t.head);
    rels.push_back(t.rel);
    tails.push_back(t.tail);
  }
  ag::Var h = ag::GatherRows(entities_, heads);
  ag::Var r = ag::GatherRows(relations_, rels);
  ag::Var t = ag::GatherRows(entities_, tails);
  return ag::SumRows(ag::Mul(ag::Mul(h, r), t));
}

ag::Var Gen::ScoreBatchWithGraph(const KnowledgeGraph& graph,
                                 const std::vector<Triple>& triples,
                                 const std::vector<bool>& entity_masked) {
  std::vector<ag::Var> scores;
  scores.reserve(triples.size());
  for (const Triple& t : triples) {
    ag::Var h = entity_masked[static_cast<size_t>(t.head)]
                    ? Aggregate(graph, t.head)
                    : ag::GatherRows(entities_, {t.head});
    ag::Var tt = entity_masked[static_cast<size_t>(t.tail)]
                     ? Aggregate(graph, t.tail)
                     : ag::GatherRows(entities_, {t.tail});
    ag::Var r = ag::GatherRows(relations_, {t.rel});
    scores.push_back(ag::SumAll(ag::Mul(ag::Mul(h, r), tt)));
  }
  return ag::Concat(scores, /*axis=*/0);
}

std::vector<double> Gen::ScoreTriples(const KnowledgeGraph& inference_graph,
                                      const std::vector<Triple>& triples) {
  std::vector<double> out;
  out.reserve(triples.size());
  auto is_emerging = [this](EntityId e) {
    return emerging_begin_ >= 0 && e >= emerging_begin_ && e < emerging_end_;
  };
  for (const Triple& t : triples) {
    ag::Var h = is_emerging(t.head) ? Aggregate(inference_graph, t.head)
                                    : ag::GatherRows(entities_, {t.head});
    ag::Var tt = is_emerging(t.tail) ? Aggregate(inference_graph, t.tail)
                                     : ag::GatherRows(entities_, {t.tail});
    ag::Var r = ag::GatherRows(relations_, {t.rel});
    ag::Var s = ag::SumAll(ag::Mul(ag::Mul(h, r), tt));
    out.push_back(static_cast<double>(s.value().Data()[0]));
  }
  return out;
}

std::vector<double> TrainGen(Gen* model, const DekgDataset& dataset,
                             const KgeTrainConfig& config) {
  const KnowledgeGraph& graph = dataset.original_graph();
  return TrainKgeBatches(
      model, dataset, config,
      [&](const std::vector<Triple>& positives, Rng* rng) {
        // Meta-learning simulation: mask one endpoint of each positive
        // with probability 0.5 — those entities are embedded via
        // aggregation.
        std::vector<bool> masked(
            static_cast<size_t>(dataset.num_total_entities()), false);
        std::vector<Triple> negatives;
        negatives.reserve(positives.size());
        for (const Triple& p : positives) {
          if (rng->Bernoulli(0.5)) {
            masked[static_cast<size_t>(rng->Bernoulli(0.5) ? p.head
                                                           : p.tail)] = true;
          }
          negatives.push_back(core::SampleNegativeTriple(dataset, p, rng));
        }
        ag::Var pos = model->ScoreBatchWithGraph(graph, positives, masked);
        ag::Var neg = model->ScoreBatchWithGraph(graph, negatives, masked);
        return ag::SumAll(ag::Relu(ag::AddScalar(
            ag::Sub(neg, pos), static_cast<float>(config.margin))));
      });
}

}  // namespace dekg::baselines
