// DEKG-ILP — the paper's full model (Sec. IV): phi = phi_sem + phi_tpo
// (Eq. 13), with ablation switches for the three variants studied in
// Fig. 6:
//   * use_clrm = false       -> DEKG-ILP-R (no semantic score)
//   * use_contrastive = false-> DEKG-ILP-C (sigma = 0)
//   * labeling = kGrail      -> DEKG-ILP-N (original GraIL labeling)
#ifndef DEKG_CORE_DEKG_ILP_H_
#define DEKG_CORE_DEKG_ILP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/clrm.h"
#include "core/gsm.h"
#include "eval/evaluator.h"
#include "kg/dataset.h"
#include "nn/module.h"

namespace dekg::core {

struct DekgIlpConfig {
  int32_t num_relations = 0;
  int32_t dim = 32;  // paper's optimal d = 32
  int32_t num_hops = 2;
  int32_t num_layers = 2;
  int32_t num_bases = 4;
  float edge_dropout = 0.5;   // paper's optimal beta = 0.5
  double margin = 1.0;        // gamma in Eq. 14
  double sigma = 0.1;         // contrastive weight in Eq. 15 (optimal 0.1)
  double theta = 2.0;         // sampling scale factor
  int32_t num_contrastive_samples = 10;

  // Ablation switches.
  bool use_clrm = true;
  bool use_gsm = true;
  bool use_contrastive = true;
  NodeLabeling labeling = NodeLabeling::kImproved;

  // When set, reported instead of the derived variant name (used by the
  // GraIL baseline, which is this model with CLRM off and the original
  // labeling).
  std::string name_override;

  std::string VariantName() const;
};

class DekgIlpModel : public nn::Module {
 public:
  DekgIlpModel(const DekgIlpConfig& config, uint64_t seed);

  const DekgIlpConfig& config() const { return config_; }
  Clrm* clrm() { return clrm_.get(); }
  Gsm* gsm() { return gsm_.get(); }

  // phi(e_i, r_k, e_j) on the given graph (Eq. 13). Differentiable: the
  // training path. Inference scores come from ScoreInference below.
  // When `subgraph` is non-null it must be the enclosing subgraph of
  // `triple` on `graph` (e.g. served by a SubgraphCache); GSM scores it
  // directly instead of re-extracting. Extraction is deterministic, so
  // both forms produce bit-identical scores.
  ag::Var ScoreLink(const KnowledgeGraph& graph, const Triple& triple,
                    bool training, Rng* rng,
                    const Subgraph* subgraph = nullptr);

  // Contrastive regularizer for the link's endpoint entities; undefined
  // Var when CLRM or the contrastive term is disabled.
  ag::Var ContrastiveLossForLink(const KnowledgeGraph& graph,
                                 const Triple& triple, Rng* rng);

 private:
  DekgIlpConfig config_;
  std::unique_ptr<Clrm> clrm_;
  std::unique_ptr<Gsm> gsm_;
};

// The one inference path: phi = phi_sem + phi_tpo (Eq. 13) at test time,
// tape-free and RNG-free (edge dropout is training-only, so a score is a
// pure function of the triple and the graph the inputs came from).
// `subgraphs[i]` is triple i's enclosing subgraph (unused and may be empty
// when `gsm` is null). `rows(e)` is entity e's fused CLRM row phi_sem
// reads: EmbedEntity(RelationComponentTable(e)) on the scoring graph
// (Eq. 3, materialized); it is not called when `clrm` is null. The
// subgraphs are grouped by GroupForPacking and scored with
// Gsm::ScoreSubgraphsPacked; phi_sem comes from Clrm::ScoreEmbedded and is
// added in float before widening to double. Every score equals
// DekgIlpModel::ScoreLink(graph, t, training=false, ·) bit for bit, for
// every grouping and thread count.
std::vector<double> ScoreInference(
    const Clrm* clrm, const Gsm* gsm, const std::vector<Triple>& triples,
    const std::vector<const Subgraph*>& subgraphs,
    const std::function<const Tensor&(EntityId)>& rows,
    const GsmBatchOptions& options = GsmBatchOptions());

// LinkPredictor adapter for the shared evaluation harness. Scoring reads
// the model parameters without mutating them, so Evaluate() may call
// ScoreTriples from several threads at once. A batch's subgraphs come
// from the cache or a fresh extraction, its CLRM rows are fused once per
// distinct endpoint, and ScoreInference scores it: a score depends only on
// (triple, inference graph), so it is bit-identical at any thread count,
// batch composition, and cache state.
class DekgIlpPredictor : public LinkPredictor {
 public:
  explicit DekgIlpPredictor(DekgIlpModel* model) : model_(model) {}

  std::string Name() const override {
    return model_->config().VariantName();
  }
  std::vector<double> ScoreTriples(const KnowledgeGraph& inference_graph,
                                   const std::vector<Triple>& triples) override;
  // Serves pre-extracted subgraphs from `cache` (Find only — no counter
  // mutation, so a shared cache stays safely read-only) and extracts the
  // rest; scores are bit-identical either way.
  std::vector<double> ScoreTriplesCached(const KnowledgeGraph& inference_graph,
                                         const std::vector<Triple>& triples,
                                         const SubgraphCache* cache) override;
  bool SupportsConcurrentScoring() const override { return true; }
  int64_t ParameterCount() const override { return model_->ParameterCount(); }

 private:
  DekgIlpModel* model_;
};

}  // namespace dekg::core

#endif  // DEKG_CORE_DEKG_ILP_H_
