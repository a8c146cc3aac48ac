// Base machinery for the transductive entity-identity KGE baselines
// (TransE, RotatE, ConvE, DistMult). Following the paper's OpenKE
// extension (Sec. V-B): the embedding table covers all entities in
// E ∪ E', only the original-entity rows are ever updated during training,
// and the unseen-entity rows keep their random initialization — exactly
// what "randomly initialized because they cannot be obtained during
// training" means for the inductive evaluation.
#ifndef DEKG_BASELINES_KGE_BASE_H_
#define DEKG_BASELINES_KGE_BASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "eval/evaluator.h"
#include "kg/dataset.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace dekg::baselines {

struct KgeConfig {
  int32_t num_entities = 0;   // total (original + emerging)
  int32_t num_relations = 0;
  int32_t dim = 32;
  uint64_t seed = 7;
};

// Abstract entity-identity embedding model. Subclasses provide the scoring
// function over embedding rows; this class provides the tables, the
// LinkPredictor adapter, and batch scoring.
class KgeModel : public nn::Module, public LinkPredictor {
 public:
  KgeModel(std::string name, const KgeConfig& config);
  ~KgeModel() override = default;

  // Differentiable batch score: one scalar per triple -> Var [B].
  virtual ag::Var ScoreBatch(const std::vector<Triple>& triples) = 0;

  // Invoked by the trainer after each optimizer step; models with norm
  // constraints (TransE projects entity embeddings into the unit ball, as
  // in Bordes et al.) apply them here. Default: no-op.
  virtual void PostOptimizerStep() {}

  // ----- LinkPredictor -----
  std::string Name() const override { return name_; }
  std::vector<double> ScoreTriples(const KnowledgeGraph& inference_graph,
                                   const std::vector<Triple>& triples) override;
  int64_t ParameterCount() const override { return nn::Module::ParameterCount(); }

  const KgeConfig& config() const { return config_; }

 protected:
  KgeConfig config_;
  Rng init_rng_;

 private:
  std::string name_;
};

struct KgeTrainConfig {
  int32_t epochs = 60;
  double lr = 0.01;
  int32_t batch_size = 128;
  int32_t negatives_per_positive = 1;
  double margin = 1.0;
  // Self-adversarial negative weighting [Sun et al., RotatE]: with K > 1
  // negatives per positive, each negative's hinge is weighted by
  // softmax(alpha * score) computed over its K-group (weights detached, as
  // in the original). Ignored when K == 1.
  bool self_adversarial = false;
  double adversarial_alpha = 1.0;
  uint64_t seed = 11;
  bool verbose = false;
  // Crash-safe checkpointing (see core::TrainConfig): non-empty path
  // resumes from an existing checkpoint and atomically rewrites it every
  // checkpoint_every epochs plus after the final epoch.
  std::string checkpoint_path;
  int32_t checkpoint_every = 1;
};

// One batch's summed loss on one tape. `rng` is the trainer's stream; the
// batch draws its negatives (and any other randomness) from it.
using KgeBatchLoss = std::function<ag::Var(const std::vector<Triple>& positives,
                                           Rng* rng)>;

// The batched epoch loop of the entity-embedding trainers. Each epoch
// shuffles a fresh copy of the train triples, so an epoch depends only on
// the RNG stream position; per batch of config.batch_size positives it
// backpropagates `batch_loss`, clips the gradient norm to 5, takes a
// row-sparse Adam step and calls PostOptimizerStep. Epochs run through
// nn::RunEpochLoop, so checkpointing and resume work as in core::Trainer.
// Returns per-epoch mean losses per positive.
std::vector<double> TrainKgeBatches(KgeModel* model,
                                    const DekgDataset& dataset,
                                    const KgeTrainConfig& config,
                                    const KgeBatchLoss& batch_loss);

// Margin-ranking training on the original KG only. Negatives come from
// core::SampleNegativeTriple, which draws replacement entities from the
// original entity range, so emerging rows are untouched (their gradient
// is never populated).
std::vector<double> TrainKgeModel(KgeModel* model, const DekgDataset& dataset,
                                  const KgeTrainConfig& config);

}  // namespace dekg::baselines

#endif  // DEKG_BASELINES_KGE_BASE_H_
