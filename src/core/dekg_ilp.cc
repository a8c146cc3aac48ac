#include "core/dekg_ilp.h"

#include <unordered_map>

#include "common/thread_pool.h"
#include "graph/subgraph_cache.h"

namespace dekg::core {

std::string DekgIlpConfig::VariantName() const {
  if (!name_override.empty()) return name_override;
  if (!use_clrm && use_gsm) return "DEKG-ILP-R";
  if (!use_contrastive && use_clrm) {
    if (labeling == NodeLabeling::kGrail) return "DEKG-ILP-C-N";
    return "DEKG-ILP-C";
  }
  if (labeling == NodeLabeling::kGrail) return "DEKG-ILP-N";
  if (!use_gsm) return "DEKG-ILP (CLRM only)";
  return "DEKG-ILP";
}

DekgIlpModel::DekgIlpModel(const DekgIlpConfig& config, uint64_t seed)
    : config_(config) {
  Rng rng(seed);
  DEKG_CHECK(config_.use_clrm || config_.use_gsm)
      << "at least one scoring module must be enabled";
  if (config_.use_clrm) {
    ClrmConfig clrm;
    clrm.num_relations = config_.num_relations;
    clrm.dim = config_.dim;
    clrm.theta = config_.theta;
    clrm.num_contrastive_samples = config_.num_contrastive_samples;
    clrm_ = std::make_unique<Clrm>(clrm, &rng);
    RegisterChild("clrm", clrm_.get());
  }
  if (config_.use_gsm) {
    GsmConfig gsm;
    gsm.num_relations = config_.num_relations;
    gsm.dim = config_.dim;
    gsm.num_hops = config_.num_hops;
    gsm.num_layers = config_.num_layers;
    gsm.num_bases = config_.num_bases;
    gsm.edge_dropout = config_.edge_dropout;
    gsm.labeling = config_.labeling;
    gsm_ = std::make_unique<Gsm>(gsm, &rng);
    RegisterChild("gsm", gsm_.get());
  }
}

ag::Var DekgIlpModel::ScoreLink(const KnowledgeGraph& graph,
                                const Triple& triple, bool training,
                                Rng* rng, const Subgraph* subgraph) {
  ag::Var score;
  if (clrm_) {
    RelationTable head_table = graph.RelationComponentTable(triple.head);
    RelationTable tail_table = graph.RelationComponentTable(triple.tail);
    score = clrm_->ScoreTriple(head_table, triple.rel, tail_table);
  }
  if (gsm_) {
    ag::Var tpo =
        subgraph != nullptr
            ? gsm_->ScoreSubgraph(*subgraph, triple.rel, training, rng)
            : gsm_->ScoreTriple(graph, triple, training, rng);
    score = score.defined() ? ag::Add(score, tpo) : tpo;
  }
  return score;
}

ag::Var DekgIlpModel::ContrastiveLossForLink(const KnowledgeGraph& graph,
                                             const Triple& triple, Rng* rng) {
  if (!clrm_ || !config_.use_contrastive || config_.sigma <= 0.0) {
    return ag::Var();
  }
  ag::Var head_loss =
      clrm_->ContrastiveLoss(graph.RelationComponentTable(triple.head), rng);
  ag::Var tail_loss =
      clrm_->ContrastiveLoss(graph.RelationComponentTable(triple.tail), rng);
  if (head_loss.defined() && tail_loss.defined()) {
    return ag::MulScalar(ag::Add(head_loss, tail_loss), 0.5f);
  }
  return head_loss.defined() ? head_loss : tail_loss;
}

std::vector<double> ScoreInference(
    const Clrm* clrm, const Gsm* gsm, const std::vector<Triple>& triples,
    const std::vector<const Subgraph*>& subgraphs,
    const std::function<const Tensor&(EntityId)>& rows,
    const GsmBatchOptions& options) {
  const size_t n = triples.size();
  std::vector<double> scores(n, 0.0);
  // phi_sem: the same float products and sum as Clrm::ScoreTriple.
  const auto sem = [&](const Triple& t) -> float {
    return clrm->ScoreEmbedded(rows(t.head), t.rel, rows(t.tail));
  };
  if (gsm == nullptr) {
    for (size_t i = 0; i < n; ++i) scores[i] = static_cast<double>(sem(triples[i]));
    return scores;
  }
  DEKG_CHECK_EQ(subgraphs.size(), n);
  std::vector<int64_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<int64_t>(i);
  const std::vector<std::vector<int64_t>> groups =
      GroupForPacking(subgraphs, all, options);
  ParallelFor(0, static_cast<int64_t>(groups.size()), /*grain=*/0,
              [&](int64_t begin, int64_t end) {
                std::vector<const Subgraph*> group_subs;
                std::vector<RelationId> group_rels;
                for (int64_t g = begin; g < end; ++g) {
                  const std::vector<int64_t>& idxs =
                      groups[static_cast<size_t>(g)];
                  group_subs.clear();
                  group_rels.clear();
                  for (int64_t i : idxs) {
                    group_subs.push_back(subgraphs[static_cast<size_t>(i)]);
                    group_rels.push_back(triples[static_cast<size_t>(i)].rel);
                  }
                  const std::vector<float> tpo =
                      gsm->ScoreSubgraphsPacked(group_subs, group_rels);
                  for (size_t k = 0; k < idxs.size(); ++k) {
                    const size_t i = static_cast<size_t>(idxs[k]);
                    // ScoreLink's ag::Add(sem, tpo): a float add, widened
                    // afterwards.
                    const float value =
                        clrm != nullptr ? sem(triples[i]) + tpo[k] : tpo[k];
                    scores[i] = static_cast<double>(value);
                  }
                }
              });
  return scores;
}

std::vector<double> DekgIlpPredictor::ScoreTriples(
    const KnowledgeGraph& inference_graph, const std::vector<Triple>& triples) {
  return ScoreTriplesCached(inference_graph, triples, /*cache=*/nullptr);
}

std::vector<double> DekgIlpPredictor::ScoreTriplesCached(
    const KnowledgeGraph& inference_graph, const std::vector<Triple>& triples,
    const SubgraphCache* cache) {
  const Clrm* clrm = model_->clrm();
  const Gsm* gsm = model_->gsm();
  // Subgraphs: cache hits, plus the misses extracted in parallel (inline
  // when Evaluate already runs this call on a pool worker).
  std::vector<const Subgraph*> subs;
  std::vector<Subgraph> extracted;
  if (gsm != nullptr) {
    subs.assign(triples.size(), nullptr);
    std::vector<size_t> misses;
    std::vector<Triple> miss_triples;
    for (size_t i = 0; i < triples.size(); ++i) {
      if (cache != nullptr) subs[i] = cache->Find(triples[i]);
      if (subs[i] != nullptr) continue;
      misses.push_back(i);
      miss_triples.push_back(triples[i]);
    }
    extracted = gsm->ExtractBatch(inference_graph, miss_triples);
    for (size_t k = 0; k < misses.size(); ++k) subs[misses[k]] = &extracted[k];
  }

  // One fused row per distinct endpoint, exactly as SnapshotWriter
  // materializes its rows.
  std::unordered_map<EntityId, Tensor> fused;
  if (clrm != nullptr) {
    for (const Triple& t : triples) {
      for (EntityId e : {t.head, t.tail}) {
        auto [it, fresh] = fused.try_emplace(e);
        if (fresh) {
          it->second =
              clrm->EmbedEntity(inference_graph.RelationComponentTable(e)).value();
        }
      }
    }
  }
  return ScoreInference(
      clrm, gsm, triples, subs,
      [&](EntityId e) -> const Tensor& { return fused.at(e); });
}

}  // namespace dekg::core
