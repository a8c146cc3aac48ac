#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

namespace dekg::core {

namespace {

void WarnNegativeFallback() {
  // The fallback is benign but worth surfacing; without rate limiting a
  // pathologically dense graph would emit one line per sampled negative.
  static std::atomic<int64_t> fires{0};
  const int64_t n = ++fires;
  if (n <= 3 || (n & 1023) == 0) {
    DEKG_WARN() << "SampleNegativeTriple: filtered sampling found no "
                << "negative in 100 attempts, using deterministic scan "
                << "(fired " << n << " times)";
  }
}

}  // namespace

Triple SampleNegativeTriple(const DekgDataset& dataset,
                            const Triple& positive, Rng* rng) {
  const int32_t n = dataset.num_original_entities();
  for (int attempt = 0; attempt < 100; ++attempt) {
    Triple corrupted = positive;
    EntityId candidate =
        static_cast<EntityId>(rng->UniformUint64(static_cast<uint64_t>(n)));
    if (rng->Bernoulli(0.5)) {
      corrupted.head = candidate;
    } else {
      corrupted.tail = candidate;
    }
    if (corrupted.head == corrupted.tail) continue;
    if (corrupted == positive) continue;
    if (dataset.original_graph().Contains(corrupted)) continue;
    return corrupted;
  }
  WarnNegativeFallback();
  // Deterministic fallback: scan entities from a random start until a
  // corruption satisfies the hard invariants (not the positive, not a
  // self-loop). The known-triple filter is intentionally dropped — on a
  // graph dense enough to get here, insisting on it could leave no valid
  // negative at all.
  const int32_t span = std::max(n, 1);
  const EntityId base = static_cast<EntityId>(
      rng->UniformUint64(static_cast<uint64_t>(span)));
  const bool head_first = rng->Bernoulli(0.5);
  for (int pass = 0; pass < 2; ++pass) {
    const bool corrupt_head = (pass == 0) == head_first;
    for (int32_t step = 0; step < span; ++step) {
      const EntityId candidate =
          static_cast<EntityId>((base + step) % span);
      Triple corrupted = positive;
      if (corrupt_head) {
        corrupted.head = candidate;
      } else {
        corrupted.tail = candidate;
      }
      if (corrupted.head == corrupted.tail) continue;
      if (corrupted == positive) continue;
      return corrupted;
    }
  }
  // Fewer than three entities: no endpoint corruption can avoid both the
  // positive and a self-loop, so corrupt the relation instead.
  Triple corrupted = positive;
  const int32_t num_rels = std::max(dataset.num_relations(), 1);
  corrupted.rel = static_cast<RelationId>(
      (positive.rel + 1) % num_rels);
  DEKG_CHECK(!(corrupted == positive))
      << "degenerate dataset: cannot construct any negative triple";
  return corrupted;
}

ExampleLoss MarginLoss(const DekgDataset* dataset, int32_t negatives,
                       TrainingScore score, float margin) {
  return [dataset, negatives, score = std::move(score), margin](
             const Triple& positive, const Subgraph* subgraph, Rng* rng) {
    ag::Var pos_score = score(positive, subgraph, rng);
    ag::Var loss;
    for (int32_t k = 0; k < negatives; ++k) {
      const Triple negative = SampleNegativeTriple(*dataset, positive, rng);
      ag::Var neg_score = score(negative, /*subgraph=*/nullptr, rng);
      // L_s = [gamma - phi(pos) + phi(neg)]_+  (Eq. 14).
      ag::Var hinge =
          ag::Relu(ag::AddScalar(ag::Sub(neg_score, pos_score), margin));
      loss = loss.defined() ? ag::Add(loss, hinge) : hinge;
    }
    return loss;
  };
}

Trainer::Trainer(nn::Module* module, const DekgDataset* dataset,
                 const TrainConfig& config, ExampleLoss loss, const Gsm* gsm,
                 std::string name)
    : module_(module),
      dataset_(dataset),
      config_(config),
      loss_(std::move(loss)),
      gsm_(gsm),
      name_(std::move(name)),
      rng_(config.seed),
      optimizer_(module, nn::Adam::Options{.lr = config.lr}),
      cache_(config.subgraph_cache_capacity) {
  if (config_.num_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
}

void Trainer::ParallelExamples(
    int64_t n, const std::function<void(int64_t, int64_t)>& fn) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(0, n, /*grain=*/1, fn);
  } else {
    ParallelFor(0, n, /*grain=*/1, fn);
  }
}

double Trainer::TrainEpoch() {
  const KnowledgeGraph& graph = dataset_->original_graph();
  std::vector<Triple> triples = dataset_->train_triples();
  rng_.Shuffle(&triples);
  if (config_.max_triples_per_epoch > 0 &&
      static_cast<int32_t>(triples.size()) > config_.max_triples_per_epoch) {
    triples.resize(static_cast<size_t>(config_.max_triples_per_epoch));
  }

  // One draw per epoch seeds every per-example RNG stream via MixSeed.
  // The trainer RNG therefore advances by a fixed number of draws per
  // epoch (shuffle + this), which is what keeps checkpoint resume
  // bit-identical regardless of batch shapes or thread counts.
  const uint64_t epoch_seed = rng_.NextUint64();

  // ----- Subgraph cache (positives only) -----
  // As in the serve engine: one Lookup per epoch triple scopes hit/miss
  // stats to this epoch and collects the distinct misses, which are
  // extracted in parallel into epoch-local storage; every example then
  // reads its resident or freshly extracted subgraph. The misses are
  // admitted after the epoch in first-miss order (deterministic FIFO
  // age), so nothing is admitted or evicted while examples hold these
  // pointers.
  cache_.ResetCounters();
  const bool use_cache = config_.use_subgraph_cache && gsm_ != nullptr;
  std::vector<const Subgraph*> positive_subgraphs(triples.size(), nullptr);
  std::vector<Triple> missing;  // distinct misses, first-miss order
  std::vector<Subgraph> extracted;  // index-aligned with `missing`
  if (use_cache) {
    std::vector<size_t> miss_slot(triples.size(), 0);
    std::unordered_map<Triple, size_t, TripleHash> slot_of;
    for (size_t i = 0; i < triples.size(); ++i) {
      positive_subgraphs[i] = cache_.Lookup(triples[i]);
      if (positive_subgraphs[i] != nullptr) continue;
      const auto [it, fresh] = slot_of.emplace(triples[i], missing.size());
      if (fresh) missing.push_back(triples[i]);
      miss_slot[i] = it->second;
    }
    extracted = gsm_->ExtractBatch(graph, missing, pool_.get());
    for (size_t i = 0; i < triples.size(); ++i) {
      if (positive_subgraphs[i] == nullptr) {
        positive_subgraphs[i] = &extracted[miss_slot[i]];
      }
    }
  }

  double epoch_loss = 0.0;
  int64_t count = 0;
  const size_t batch_size = static_cast<size_t>(config_.batch_size);
  std::vector<float> slot_loss(batch_size, 0.0f);
  std::vector<uint8_t> slot_has_loss(batch_size, 0);
  while (sinks_.size() < batch_size) {
    sinks_.push_back(module_->MakeGradSink());
  }

  for (size_t begin = 0; begin < triples.size(); begin += batch_size) {
    const size_t end = std::min(triples.size(), begin + batch_size);
    const size_t used = end - begin;
    module_->ZeroGrad();
    std::fill(slot_has_loss.begin(), slot_has_loss.end(), 0);

    // Each example builds a private tape from its own RNG stream and
    // backpropagates into its own sink; d(batch)/d(example) = 1, so the
    // per-example sweep seeds 1 exactly like the old summed-tape sweep.
    ParallelExamples(
        static_cast<int64_t>(used), [&](int64_t slot_begin, int64_t slot_end) {
          for (int64_t slot = slot_begin; slot < slot_end; ++slot) {
            const size_t i = begin + static_cast<size_t>(slot);
            Rng ex_rng(MixSeed(epoch_seed, static_cast<uint64_t>(i)));
            ag::Var sample_loss =
                loss_(triples[i], positive_subgraphs[i], &ex_rng);
            ag::GradSink& sink = sinks_[static_cast<size_t>(slot)];
            sink.Reset();
            if (!sample_loss.defined()) continue;
            slot_loss[static_cast<size_t>(slot)] =
                sample_loss.value().Data()[0];
            slot_has_loss[static_cast<size_t>(slot)] = 1;
            sample_loss.Backward(&sink);
          }
        });

    // Fixed-order reduction: the batch loss sums example losses in example
    // order (same float association as the old serial Add chain), and the
    // sinks reduce parameter-major, example-ascending.
    float batch_sum = 0.0f;
    int32_t batch_count = 0;
    for (size_t slot = 0; slot < used; ++slot) {
      if (!slot_has_loss[slot]) continue;
      batch_sum += slot_loss[slot];
      ++batch_count;
    }
    if (batch_count == 0) continue;
    epoch_loss += static_cast<double>(batch_sum);
    count += batch_count;
    module_->AccumulateShardedGrads(sinks_, used);
    nn::ClipGradNorm(module_, config_.grad_clip);
    if (config_.sparse_optimizer) {
      optimizer_.SparseStep();
    } else {
      optimizer_.Step();
    }
  }
  // The training graph never grows, so the misses post no touched set.
  // Each is admitted as a copy: an extraction's arrays grew by push_back
  // and hold about a quarter more capacity than size, which a copy drops
  // and the cache would otherwise keep for the rest of training.
  for (size_t m = 0; m < missing.size(); ++m) {
    cache_.Admit(missing[m], extracted[m], {});
  }
  return count > 0 ? epoch_loss / static_cast<double>(count) : 0.0;
}

double DekgIlpTrainer::TrainWithValidation(const EvalConfig& eval_config,
                                           int32_t eval_every) {
  DEKG_CHECK_GE(eval_every, 1);
  const DekgDataset& data = dataset();
  DEKG_CHECK(!data.valid_links().empty())
      << "validation-based selection needs valid links";
  // Evaluate on the validation links by temporarily swapping them in as
  // the test set of a shadow dataset view.
  DekgDataset valid_view(data.name() + "-valid", data.num_original_entities(),
                         data.num_emerging_entities(), data.num_relations(),
                         data.train_triples(), data.emerging_triples(), {},
                         data.valid_links());
  DekgIlpPredictor predictor(model_);
  double best_mrr = -1.0;
  std::vector<float> best_state;
  const int32_t epochs = config().epochs;
  for (int32_t epoch = 0; epoch < epochs; ++epoch) {
    const double loss = TrainEpoch();
    if (config().verbose) {
      DEKG_INFO() << model_->config().VariantName() << " epoch " << epoch + 1
                  << " loss " << loss;
    }
    if ((epoch + 1) % eval_every != 0 && epoch + 1 != epochs) continue;
    EvalResult result = Evaluate(&predictor, valid_view, eval_config);
    if (result.overall.mrr > best_mrr) {
      best_mrr = result.overall.mrr;
      best_state = model_->StateVector();
    }
  }
  if (!best_state.empty()) model_->LoadStateVector(best_state);
  return best_mrr;
}

std::vector<double> Trainer::Train() {
  return nn::RunEpochLoop(config_, name_, module_, &optimizer_, &rng_, &loop_,
                          [this] { return TrainEpoch(); });
}

bool Trainer::SaveCheckpoint(const std::string& path) const {
  return nn::SaveTrainState(path, *module_, optimizer_, rng_, loop_);
}

bool Trainer::LoadCheckpoint(const std::string& path) {
  return nn::LoadTrainState(path, module_, &optimizer_, &rng_, &loop_);
}

namespace {

// phi on the training graph, Eq. 14 with the model's margin, plus sigma
// times the contrastive loss when the model trains with it (Eq. 15).
ExampleLoss DekgIlpLoss(DekgIlpModel* model, const DekgDataset* dataset,
                        int32_t negatives) {
  const KnowledgeGraph* graph = &dataset->original_graph();
  ExampleLoss margin_loss = MarginLoss(
      dataset, negatives,
      [model, graph](const Triple& t, const Subgraph* subgraph, Rng* rng) {
        return model->ScoreLink(*graph, t, /*training=*/true, rng, subgraph);
      },
      static_cast<float>(model->config().margin));
  const float sigma = static_cast<float>(model->config().sigma);
  if (!model->config().use_contrastive || sigma <= 0.0f) return margin_loss;
  return [model, graph, sigma, margin_loss = std::move(margin_loss)](
             const Triple& positive, const Subgraph* subgraph, Rng* rng) {
    ag::Var loss = margin_loss(positive, subgraph, rng);
    ag::Var contrastive = model->ContrastiveLossForLink(*graph, positive, rng);
    if (!contrastive.defined()) return loss;
    ag::Var weighted = ag::MulScalar(contrastive, sigma);
    return loss.defined() ? ag::Add(loss, weighted) : weighted;
  };
}

}  // namespace

DekgIlpTrainer::DekgIlpTrainer(DekgIlpModel* model, const DekgDataset* dataset,
                               const TrainConfig& config)
    : Trainer(model, dataset, config,
              DekgIlpLoss(model, dataset, config.negatives_per_positive),
              model->gsm(), model->config().VariantName()),
      model_(model) {}

}  // namespace dekg::core
