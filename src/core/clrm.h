// CLRM — Contrastive Learning-based Relation-specific Feature Modeling
// (Sec. IV-B).
//
// Each relation r_k owns a learned feature f_k (Eq. 1). An entity e_i is
// represented in an entity-independent manner as the frequency-weighted
// average of the features of its incident relations (fusion, Eq. 3), using
// its relation-component table a_i (Eq. 2). Triples are scored with a
// DistMult decoder against a second per-relation embedding r_k^sem
// (Eq. 4). The features are optimized by a semantic-aware contrastive
// triplet loss (Eq. 7): positives come from relation *variation* (o1) —
// multiplicity changes that keep the relation set intact — and negatives
// from relation *addition* (o2) and *deletion* (o3), which change the
// entity's semantics.
#ifndef DEKG_CORE_CLRM_H_
#define DEKG_CORE_CLRM_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "kg/knowledge_graph.h"
#include "nn/module.h"

namespace dekg::core {

struct ClrmConfig {
  int32_t num_relations = 0;
  int32_t dim = 32;  // d, the relation-specific feature dimension
  // Scaling factor theta: varied/added multiplicities are drawn from
  // [1, m_i * theta] where m_i is the entity's mean nonzero multiplicity.
  double theta = 2.0;
  // Margin gamma of the contrastive triplet loss (Eq. 7).
  double contrastive_margin = 1.0;
  // Positive/negative example pairs sampled per entity per loss call
  // (the paper uses 10).
  int32_t num_contrastive_samples = 10;
};

// A relation-component table: counts[k] = multiplicity of relation k among
// the entity's incident triples.
using RelationTable = std::vector<int32_t>;

class Clrm : public nn::Module {
 public:
  Clrm(const ClrmConfig& config, Rng* rng);

  const ClrmConfig& config() const { return config_; }

  // Fusion psi(A_i, F): [1, dim]. An all-zero table (isolated entity)
  // yields the zero embedding.
  ag::Var EmbedEntity(const RelationTable& table) const;

  // phi_sem(e_i, r_k, e_j) = <e_i, r_k_sem, e_j> (Eq. 4): scalar Var [1].
  ag::Var ScoreTriple(const RelationTable& head_table, RelationId rel,
                      const RelationTable& tail_table) const;

  // DistMult decoder over already-fused entity rows, tape-free: the
  // inference row kernel (core::ScoreInference). When `head` / `tail`
  // equal EmbedEntity(table) values ([1, dim] tensors), the result is
  // bit-identical to ScoreTriple on the corresponding tables — the same
  // float products in the same order, summed in index order in double
  // as SumAll does; only the fusion matmul and the tape are skipped.
  float ScoreEmbedded(const Tensor& head, RelationId rel,
                      const Tensor& tail) const;

  // Contrastive loss for one entity's table (Eq. 7), averaged over the
  // configured number of sampled pairs. Returns an undefined Var when the
  // table has no usable structure (fewer than one nonzero relation).
  ag::Var ContrastiveLoss(const RelationTable& table, Rng* rng) const;

  // ----- Sampling operations (exposed for tests) -----
  // o1: relation variation — returns a positive-example table.
  RelationTable RelationVariation(const RelationTable& table, Rng* rng) const;
  // o2 + o3: addition and deletion — returns a negative-example table.
  RelationTable RelationAdditionDeletion(const RelationTable& table,
                                         Rng* rng) const;
  // Mean multiplicity m_i over nonzero entries (Eq. 5); 0 for empty tables.
  static double MeanNonzero(const RelationTable& table);

  ag::Var relation_features() const { return relation_features_; }
  ag::Var relation_sem() const { return relation_sem_; }

 private:
  ClrmConfig config_;
  ag::Var relation_features_;  // F: [R, dim]
  ag::Var relation_sem_;       // r^sem: [R, dim]
};

}  // namespace dekg::core

#endif  // DEKG_CORE_CLRM_H_
