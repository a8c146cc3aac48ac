// The one training loop (Algorithm 1): margin ranking loss over positive
// triples and corrupted negatives (Eq. 14), optimized with Adam. Trainer
// runs it for any nn::Module given a per-example loss; DekgIlpTrainer adds
// DEKG-ILP's weighted contrastive loss (Eq. 15), and TACT and Neural LP
// train through it on the plain margin hinge (MarginLoss).
//
// Training only ever sees the original KG G; the contrastive operations
// likewise only consider G (Sec. IV-B2).
//
// The epoch loop is data-parallel and bit-identical at any thread count
// and across checkpoint resume (see DESIGN.md §8): every example draws
// from its own MixSeed RNG stream, workers build private autograd tapes
// whose leaf gradients land in per-example GradSinks, and sinks are
// reduced in fixed example order before the optimizer step. With a GSM,
// positive-triple subgraphs are extracted once into an epoch-persistent
// SubgraphCache, admitted after the epoch that missed them; the optimizer
// runs row-sparse hot-row-tracked updates over embedding-style
// parameters.
#ifndef DEKG_CORE_TRAINER_H_
#define DEKG_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "graph/subgraph_cache.h"
#include "kg/dataset.h"
#include "nn/optimizer.h"
#include "nn/train_checkpoint.h"

namespace dekg::core {

struct TrainConfig {
  int32_t epochs = 20;
  double lr = 0.01;  // paper's optimal
  int32_t batch_size = 8;
  // Subsample of train triples visited per epoch (0 = all). Keeps subgraph
  // extraction tractable on CPU.
  int32_t max_triples_per_epoch = 0;
  int32_t negatives_per_positive = 1;  // paper samples 1
  double grad_clip = 5.0;
  uint64_t seed = 42;
  bool verbose = false;
  // Crash-safe checkpointing: when checkpoint_path is non-empty, Train()
  // resumes from an existing checkpoint at that path and atomically
  // rewrites it every checkpoint_every epochs (and after the final
  // epoch). A failed save (disk full, injected fault) logs a warning and
  // training continues on the previous checkpoint.
  std::string checkpoint_path;
  int32_t checkpoint_every = 1;
  // Threads for the data-parallel example loop: 0 uses the process-wide
  // default pool (DEKG_NUM_THREADS), > 0 builds a dedicated pool of that
  // size. Every setting produces bit-identical results.
  int32_t num_threads = 0;
  // Epoch-persistent cache of positive-triple subgraphs. Numerically
  // transparent: extraction is deterministic, so cached and fresh
  // subgraphs are identical.
  bool use_subgraph_cache = true;
  // Max resident cached subgraphs (0 = unlimited; FIFO eviction).
  int64_t subgraph_cache_capacity = 1 << 18;
  // Row-sparse optimizer steps for rank-2 parameters; bit-identical
  // to dense updates (see DESIGN.md §8).
  bool sparse_optimizer = true;
};

// Corrupts the head or tail of `positive` with a random original entity,
// filtered against the train graph. After 100 rejected attempts it falls
// back to a deterministic scan that still honors the two hard invariants —
// never the positive triple itself, never a self-loop — and logs a
// rate-limited warning (the fallback firing means the graph is so dense
// that filtered sampling keeps colliding).
Triple SampleNegativeTriple(const DekgDataset& dataset,
                            const Triple& positive, Rng* rng);

// One training example's loss, built on the example's private tape from
// its own RNG stream `rng`. `subgraph` is the positive's cached enclosing
// subgraph on the training graph, or null (no GSM, or a cache miss). An
// undefined Var skips the example. Called from several threads at once.
using ExampleLoss = std::function<ag::Var(
    const Triple& positive, const Subgraph* subgraph, Rng* rng)>;

// A model's differentiable training score of `triple` on the dataset's
// original graph; `subgraph` and `rng` as for ExampleLoss.
using TrainingScore = std::function<ag::Var(
    const Triple& triple, const Subgraph* subgraph, Rng* rng)>;

// Eq. 14 for one positive: the sum over `negatives` corruptions drawn by
// SampleNegativeTriple of [margin - score(positive) + score(negative)]_+.
// The positive is scored first, with its subgraph; then each negative is
// drawn and scored with a null subgraph.
ExampleLoss MarginLoss(const DekgDataset* dataset, int32_t negatives,
                       TrainingScore score, float margin = 1.0f);

// The per-example training loop DEKG-ILP, GraIL, TACT and Neural LP share.
class Trainer {
 public:
  // Trains `module` on `loss` over dataset->train_triples(). With a
  // non-null `gsm` and config.use_subgraph_cache set, each epoch serves
  // the positives' enclosing subgraphs from the subgraph cache, extracting
  // the misses, and hands them to `loss`. `name` labels verbose logs.
  Trainer(nn::Module* module, const DekgDataset* dataset,
          const TrainConfig& config, ExampleLoss loss,
          const Gsm* gsm = nullptr, std::string name = "model");
  virtual ~Trainer() = default;
  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  // One pass over (a subsample of) the training triples. Returns the mean
  // per-positive loss. Subgraph-cache hit/miss counters are reset on
  // entry, so subgraph_cache().stats() afterwards describes this epoch.
  double TrainEpoch();

  // Runs config.epochs epochs; returns per-epoch mean losses (including
  // epochs recovered from a checkpoint when resuming, so the returned
  // curve always spans epoch 0..config.epochs).
  std::vector<double> Train();

  // Atomically saves / restores the full training state (model params,
  // Adam moments, RNG stream, epoch counter + loss curve). Save returns
  // false on I/O failure leaving any previous checkpoint intact; Load
  // returns false when the file is missing.
  bool SaveCheckpoint(const std::string& path) const;
  bool LoadCheckpoint(const std::string& path);
  int64_t epochs_completed() const { return loop_.epochs_completed; }

  // Cache observability for benchmarks and tests.
  const SubgraphCache& subgraph_cache() const { return cache_; }

 protected:
  const TrainConfig& config() const { return config_; }
  const DekgDataset& dataset() const { return *dataset_; }

 private:
  // Runs `fn(begin, end)` chunks over [0, n) on the configured pool.
  void ParallelExamples(int64_t n,
                        const std::function<void(int64_t, int64_t)>& fn);

  nn::Module* module_;
  const DekgDataset* dataset_;
  TrainConfig config_;
  ExampleLoss loss_;
  const Gsm* gsm_;
  std::string name_;
  Rng rng_;
  nn::Adam optimizer_;
  nn::TrainLoopState loop_;
  std::unique_ptr<ThreadPool> pool_;  // only when config_.num_threads > 0
  SubgraphCache cache_;
  std::vector<ag::GradSink> sinks_;  // one per batch example slot, reused
};

// DEKG-ILP's trainer: the margin loss on phi (Eq. 13) with the model's
// margin gamma, plus sigma times the contrastive loss (Eq. 15).
class DekgIlpTrainer : public Trainer {
 public:
  DekgIlpTrainer(DekgIlpModel* model, const DekgDataset* dataset,
                 const TrainConfig& config);

  // Trains with validation-based model selection: every `eval_every`
  // epochs the model is scored on dataset->valid_links() (the paper's grid
  // search selects hyperparameters on the validation sets the same way);
  // the best-MRR parameter state is restored at the end. Returns the best
  // validation MRR.
  double TrainWithValidation(const EvalConfig& eval_config,
                             int32_t eval_every = 2);

 private:
  DekgIlpModel* model_;
};

}  // namespace dekg::core

#endif  // DEKG_CORE_TRAINER_H_
