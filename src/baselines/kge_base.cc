#include "baselines/kge_base.h"

#include <algorithm>

#include "core/trainer.h"
#include "nn/train_checkpoint.h"

namespace dekg::baselines {

KgeModel::KgeModel(std::string name, const KgeConfig& config)
    : config_(config), init_rng_(config.seed), name_(std::move(name)) {
  DEKG_CHECK_GT(config_.num_entities, 0);
  DEKG_CHECK_GT(config_.num_relations, 0);
}

std::vector<double> KgeModel::ScoreTriples(
    const KnowledgeGraph& /*inference_graph*/,
    const std::vector<Triple>& triples) {
  // Entity-identity models ignore test-time structure entirely — that is
  // the point of the comparison.
  ag::Var scores = ScoreBatch(triples);
  DEKG_CHECK_EQ(scores.value().numel(), static_cast<int64_t>(triples.size()));
  std::vector<double> out(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    out[i] = static_cast<double>(scores.value().Data()[static_cast<int64_t>(i)]);
  }
  return out;
}

std::vector<double> TrainKgeBatches(KgeModel* model,
                                    const DekgDataset& dataset,
                                    const KgeTrainConfig& config,
                                    const KgeBatchLoss& batch_loss) {
  Rng rng(config.seed);
  nn::Adam optimizer(model, {.lr = config.lr});
  nn::TrainLoopState loop;
  const size_t batch_size = static_cast<size_t>(config.batch_size);
  return nn::RunEpochLoop(
      config, model->Name(), model, &optimizer, &rng, &loop, [&] {
        std::vector<Triple> triples = dataset.train_triples();
        rng.Shuffle(&triples);
        double epoch_loss = 0.0;
        for (size_t begin = 0; begin < triples.size(); begin += batch_size) {
          const size_t end = std::min(triples.size(), begin + batch_size);
          const std::vector<Triple> positives(
              triples.begin() + static_cast<ptrdiff_t>(begin),
              triples.begin() + static_cast<ptrdiff_t>(end));
          model->ZeroGrad();
          ag::Var loss = batch_loss(positives, &rng);
          epoch_loss += static_cast<double>(loss.value().Data()[0]);
          loss.Backward();
          nn::ClipGradNorm(model, 5.0);
          optimizer.SparseStep();
          model->PostOptimizerStep();
        }
        return triples.empty()
                   ? 0.0
                   : epoch_loss / static_cast<double>(triples.size());
      });
}

std::vector<double> TrainKgeModel(KgeModel* model, const DekgDataset& dataset,
                                  const KgeTrainConfig& config) {
  const int32_t k = config.negatives_per_positive;
  return TrainKgeBatches(
      model, dataset, config,
      [&](const std::vector<Triple>& positives, Rng* rng) {
        std::vector<Triple> negatives;
        negatives.reserve(positives.size() * static_cast<size_t>(k));
        for (const Triple& p : positives) {
          for (int32_t j = 0; j < k; ++j) {
            negatives.push_back(core::SampleNegativeTriple(dataset, p, rng));
          }
        }
        ag::Var pos_scores = model->ScoreBatch(positives);  // [B]
        ag::Var neg_scores = model->ScoreBatch(negatives);  // [B * K]
        // With K negatives per positive, tile positives to align.
        ag::Var pos_aligned = pos_scores;
        if (k > 1) {
          std::vector<Triple> tiled;
          tiled.reserve(negatives.size());
          for (const Triple& p : positives) {
            tiled.insert(tiled.end(), static_cast<size_t>(k), p);
          }
          pos_aligned = model->ScoreBatch(tiled);
        }
        ag::Var hinges =
            ag::Relu(ag::AddScalar(ag::Sub(neg_scores, pos_aligned),
                                   static_cast<float>(config.margin)));
        if (!config.self_adversarial || k <= 1) return ag::SumAll(hinges);
        // Weight each negative by softmax(alpha * score) within its
        // K-group; the weights are detached constants as in RotatE.
        const int64_t groups = neg_scores.value().numel() / k;
        Tensor grouped = neg_scores.value().Reshape(Shape{groups, k}).Clone();
        grouped.ScaleInPlace(static_cast<float>(config.adversarial_alpha));
        Tensor weights = SoftmaxRows(grouped).Reshape(Shape{groups * k});
        return ag::SumAll(ag::Mul(hinges, ag::Var::Constant(weights)));
      });
}

}  // namespace dekg::baselines
