#include "core/clrm.h"

#include <algorithm>
#include <cmath>

namespace dekg::core {

Clrm::Clrm(const ClrmConfig& config, Rng* rng) : config_(config) {
  DEKG_CHECK_GT(config_.num_relations, 0);
  DEKG_CHECK_GT(config_.dim, 0);
  relation_features_ = RegisterParameter(
      "relation_features",
      Tensor::XavierUniform(Shape{config_.num_relations, config_.dim}, rng));
  relation_sem_ = RegisterParameter(
      "relation_sem",
      Tensor::XavierUniform(Shape{config_.num_relations, config_.dim}, rng));
}

ag::Var Clrm::EmbedEntity(const RelationTable& table) const {
  DEKG_CHECK_EQ(static_cast<int32_t>(table.size()), config_.num_relations);
  int64_t total = 0;
  for (int32_t c : table) {
    DEKG_CHECK_GE(c, 0);
    total += c;
  }
  // Weighted average as a [1, R] x [R, d] matmul; the weight row is a
  // constant, so gradients flow only into F.
  Tensor weights(Shape{1, config_.num_relations});
  if (total > 0) {
    const float inv = 1.0f / static_cast<float>(total);
    for (int32_t k = 0; k < config_.num_relations; ++k) {
      weights.At(0, k) = static_cast<float>(table[static_cast<size_t>(k)]) * inv;
    }
  }
  return ag::MatMul(ag::Var::Constant(weights), relation_features_);
}

ag::Var Clrm::ScoreTriple(const RelationTable& head_table, RelationId rel,
                          const RelationTable& tail_table) const {
  DEKG_CHECK(rel >= 0 && rel < config_.num_relations);
  ag::Var head = EmbedEntity(head_table);
  ag::Var tail = EmbedEntity(tail_table);
  ag::Var rel_emb = ag::GatherRows(relation_sem_, {rel});
  return ag::SumAll(ag::Mul(ag::Mul(head, rel_emb), tail));
}

float Clrm::ScoreEmbedded(const Tensor& head, RelationId rel,
                          const Tensor& tail) const {
  DEKG_CHECK(rel >= 0 && rel < config_.num_relations);
  const int64_t dim = config_.dim;
  DEKG_CHECK_EQ(head.numel(), dim);
  DEKG_CHECK_EQ(tail.numel(), dim);
  const float* h = head.Data();
  const float* r = relation_sem_.value().Data() + rel * dim;
  const float* t = tail.Data();
  // Same op order as ScoreTriple: Mul(Mul(head, rel), tail) rounds each
  // product to float, then SumAll accumulates in index order in double.
  double sum = 0.0;
  for (int64_t d = 0; d < dim; ++d) {
    const float hr = h[d] * r[d];
    sum += hr * t[d];
  }
  return static_cast<float>(sum);
}

double Clrm::MeanNonzero(const RelationTable& table) {
  int64_t sum = 0;
  int64_t nonzero = 0;
  for (int32_t c : table) {
    if (c > 0) {
      sum += c;
      ++nonzero;
    }
  }
  return nonzero == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(nonzero);
}

namespace {

// Indices of zero / nonzero entries.
std::vector<int32_t> Indices(const RelationTable& table, bool nonzero) {
  std::vector<int32_t> out;
  for (size_t k = 0; k < table.size(); ++k) {
    if ((table[k] != 0) == nonzero) out.push_back(static_cast<int32_t>(k));
  }
  return out;
}

// Upper bound m_i * theta for sampled multiplicities, at least 1.
int64_t MultiplicityCap(const RelationTable& table, double theta) {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(Clrm::MeanNonzero(table) * theta)));
}

}  // namespace

RelationTable Clrm::RelationVariation(const RelationTable& table,
                                      Rng* rng) const {
  RelationTable out = table;
  std::vector<int32_t> nonzero = Indices(table, /*nonzero=*/true);
  if (nonzero.empty()) return out;
  const int64_t cap = MultiplicityCap(table, config_.theta);
  // A short random sequence of o1 operations (1-3 applications).
  const int32_t ops = 1 + static_cast<int32_t>(rng->UniformUint64(3));
  for (int32_t i = 0; i < ops; ++i) {
    int32_t k = nonzero[rng->UniformUint64(nonzero.size())];
    out[static_cast<size_t>(k)] =
        static_cast<int32_t>(rng->UniformInt(1, cap));
  }
  return out;
}

RelationTable Clrm::RelationAdditionDeletion(const RelationTable& table,
                                             Rng* rng) const {
  RelationTable out = table;
  std::vector<int32_t> nonzero = Indices(table, /*nonzero=*/true);
  std::vector<int32_t> zero = Indices(table, /*nonzero=*/false);
  const int64_t cap = MultiplicityCap(table, config_.theta);
  bool changed = false;
  // o2: attach a brand-new relation (changes the semantics).
  if (!zero.empty()) {
    int32_t k = zero[rng->UniformUint64(zero.size())];
    out[static_cast<size_t>(k)] =
        static_cast<int32_t>(rng->UniformInt(1, cap));
    changed = true;
  }
  // o3: completely remove one existing relation (only when at least one
  // other relation remains — an all-zero table is degenerate, not a
  // semantic change).
  if (nonzero.size() > 1 && (!changed || rng->Bernoulli(0.5))) {
    int32_t k = nonzero[rng->UniformUint64(nonzero.size())];
    out[static_cast<size_t>(k)] = 0;
    changed = true;
  }
  if (!changed && !nonzero.empty()) {
    // Degenerate fallback (every relation already attached): force a
    // deletion so the negative differs from the anchor.
    int32_t k = nonzero[rng->UniformUint64(nonzero.size())];
    out[static_cast<size_t>(k)] = 0;
  }
  return out;
}

ag::Var Clrm::ContrastiveLoss(const RelationTable& table, Rng* rng) const {
  std::vector<int32_t> nonzero = Indices(table, /*nonzero=*/true);
  if (nonzero.empty()) return ag::Var();
  ag::Var anchor = EmbedEntity(table);
  ag::Var total;
  for (int32_t s = 0; s < config_.num_contrastive_samples; ++s) {
    RelationTable pos_table = RelationVariation(table, rng);
    RelationTable neg_table = RelationAdditionDeletion(table, rng);
    ag::Var pos = EmbedEntity(pos_table);
    ag::Var neg = EmbedEntity(neg_table);
    // Euclidean distances; loss pulls the positive inside the margin.
    ag::Var pos_dist = ag::Sqrt(ag::SumAll(ag::Square(ag::Sub(pos, anchor))));
    ag::Var neg_dist = ag::Sqrt(ag::SumAll(ag::Square(ag::Sub(neg, anchor))));
    ag::Var term = ag::Relu(ag::AddScalar(
        ag::Sub(pos_dist, neg_dist),
        static_cast<float>(config_.contrastive_margin)));
    total = total.defined() ? ag::Add(total, term) : term;
  }
  return ag::MulScalar(
      total, 1.0f / static_cast<float>(config_.num_contrastive_samples));
}

}  // namespace dekg::core
