// GEN baseline [Baek et al., NeurIPS 2020], adapted to our substrate: a
// meta-learned graph extrapolation network. During training, entities are
// randomly "masked" to simulate unseen entities; a relation-aware
// aggregator reconstructs their embedding from neighbor embeddings, and a
// DistMult decoder scores links against the reconstruction. At test time
// unseen entities are embedded by aggregating over their neighbors in the
// inference graph — but in the DEKG scenario those neighbors are
// themselves unseen (random rows), so the reconstruction carries little
// signal. This reproduces the paper's observation 7: GEN's unseen
// embeddings stay close to random vectors.
#ifndef DEKG_BASELINES_GEN_H_
#define DEKG_BASELINES_GEN_H_

#include "baselines/kge_base.h"

namespace dekg::baselines {

class Gen : public KgeModel {
 public:
  explicit Gen(const KgeConfig& config);

  // Scores with plain embeddings (training uses ScoreBatchMasked).
  ag::Var ScoreBatch(const std::vector<Triple>& triples) override;

  // Training-time forward that embeds `masked` entities via aggregation
  // from the given graph instead of their own rows.
  ag::Var ScoreBatchWithGraph(const KnowledgeGraph& graph,
                              const std::vector<Triple>& triples,
                              const std::vector<bool>& entity_masked);

  // Test-time scoring aggregates every emerging entity from the inference
  // graph.
  std::vector<double> ScoreTriples(const KnowledgeGraph& inference_graph,
                                   const std::vector<Triple>& triples) override;

  // Marks the emerging-id range so ScoreTriples knows which entities to
  // reconstruct.
  void SetEmergingRange(EntityId begin, EntityId end) {
    emerging_begin_ = begin;
    emerging_end_ = end;
  }

 private:
  // Aggregated embedding of `entity` from its neighbors in `graph`:
  // mean over incident edges of relation-gated neighbor embeddings,
  // passed through a linear transform. Returns [1, d].
  ag::Var Aggregate(const KnowledgeGraph& graph, EntityId entity);

  ag::Var entities_;
  ag::Var relations_;
  ag::Var rel_gate_;  // [R, d] relation-conditioned gate used in aggregation
  ag::Var agg_weight_;       // [d, d]
  ag::Var agg_bias_;         // [d]
  EntityId emerging_begin_ = -1;
  EntityId emerging_end_ = -1;
};

// GEN-specific trainer on the shared batched KGE loop (TrainKgeBatches):
// every step masks the head or tail of each positive with probability 0.5
// to simulate out-of-graph entities (the meta-learning simulation).
std::vector<double> TrainGen(Gen* model, const DekgDataset& dataset,
                             const KgeTrainConfig& config);

}  // namespace dekg::baselines

#endif  // DEKG_BASELINES_GEN_H_
