#include "bench/experiment.h"

#include <cstdio>
#include <cstdlib>

#include "baselines/gen.h"
#include "baselines/grail.h"
#include "baselines/kge_models.h"
#include "baselines/mean.h"
#include "baselines/neural_lp.h"
#include "baselines/rulen.h"
#include "baselines/tact.h"
#include "common/timer.h"
#include "core/dekg_ilp.h"
#include "core/trainer.h"

namespace dekg::bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

int32_t EnvInt(const char* name, int32_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

}  // namespace

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig config;
  config.scale = EnvDouble("DEKG_BENCH_SCALE", config.scale);
  config.subgraph_epochs = EnvInt("DEKG_BENCH_EPOCHS", config.subgraph_epochs);
  config.eval_links = EnvInt("DEKG_BENCH_LINKS", config.eval_links);
  config.seed = static_cast<uint64_t>(EnvInt("DEKG_BENCH_SEED",
                                             static_cast<int32_t>(config.seed)));
  config.runs = EnvInt("DEKG_BENCH_RUNS", config.runs);
  return config;
}

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTransE: return "TransE";
    case ModelKind::kRotatE: return "RotatE";
    case ModelKind::kConvE: return "ConvE";
    case ModelKind::kGen: return "GEN";
    case ModelKind::kRuleN: return "RuleN";
    case ModelKind::kGrail: return "Grail";
    case ModelKind::kTact: return "TACT";
    case ModelKind::kNeuralLp: return "NeuralLP";
    case ModelKind::kMean: return "MEAN";
    case ModelKind::kDekgIlp: return "DEKG-ILP";
    case ModelKind::kDekgIlpNoR: return "DEKG-ILP-R";
    case ModelKind::kDekgIlpNoC: return "DEKG-ILP-C";
    case ModelKind::kDekgIlpNoN: return "DEKG-ILP-N";
    case ModelKind::kClrmOnly: return "CLRM-only";
  }
  return "?";
}

std::vector<ModelKind> TableThreeModels() {
  return {ModelKind::kTransE, ModelKind::kRotatE, ModelKind::kConvE,
          ModelKind::kGen,    ModelKind::kRuleN,  ModelKind::kGrail,
          ModelKind::kTact,   ModelKind::kDekgIlp};
}

std::vector<ModelKind> AblationModels() {
  return {ModelKind::kDekgIlpNoR, ModelKind::kDekgIlpNoC,
          ModelKind::kDekgIlpNoN, ModelKind::kClrmOnly, ModelKind::kDekgIlp};
}

DekgDataset MakeDataset(datagen::KgFamily family, datagen::EvalSplit split,
                        const ExperimentConfig& config) {
  return datagen::MakeBenchmarkDataset(family, split, config.scale,
                                       config.seed);
}

namespace {

// Builds the DEKG-ILP configuration for a full model or ablation variant.
core::DekgIlpConfig IlpConfig(ModelKind kind, const DekgDataset& dataset,
                              const ExperimentConfig& config) {
  core::DekgIlpConfig ilp;
  ilp.num_relations = dataset.num_relations();
  ilp.dim = config.dim;
  ilp.num_contrastive_samples = 6;
  switch (kind) {
    case ModelKind::kDekgIlp:
      break;
    case ModelKind::kDekgIlpNoR:
      ilp.use_clrm = false;
      break;
    case ModelKind::kDekgIlpNoC:
      ilp.use_contrastive = false;
      break;
    case ModelKind::kDekgIlpNoN:
      ilp.labeling = NodeLabeling::kGrail;
      break;
    case ModelKind::kClrmOnly:
      ilp.use_gsm = false;
      ilp.name_override = "CLRM-only";
      break;
    case ModelKind::kGrail: {
      core::DekgIlpConfig grail =
          baselines::GrailConfig(dataset.num_relations(), config.dim);
      return grail;
    }
    default:
      DEKG_FATAL() << "not a DEKG-ILP variant";
  }
  return ilp;
}

struct TimedEval {
  EvalResult result;
  double infer_seconds_per_50 = 0.0;
};

TimedEval EvaluateModel(LinkPredictor* predictor, const DekgDataset& dataset,
                        const ExperimentConfig& config, bool measure_time) {
  EvalConfig eval;
  eval.num_entity_negatives = config.eval_negatives;
  eval.max_links = config.eval_links;
  eval.seed = config.seed ^ 0x9999;
  TimedEval out;
  out.result = Evaluate(predictor, dataset, eval);
  if (measure_time) {
    // Average inference time for 50 links (Table IV / Fig. 7 protocol).
    std::vector<Triple> batch;
    const auto& links = dataset.test_links();
    DEKG_CHECK(!links.empty());
    for (int i = 0; i < 50; ++i) {
      batch.push_back(links[static_cast<size_t>(i) % links.size()].triple);
    }
    Timer timer;
    predictor->ScoreTriples(dataset.inference_graph(), batch);
    out.infer_seconds_per_50 = timer.ElapsedSeconds();
  }
  return out;
}

}  // namespace

namespace {
// Sum-merges two finalized metric sets by averaging (equal weights).
void AverageInto(RankingMetrics* into, const RankingMetrics& from, int32_t n) {
  into->mrr += from.mrr / n;
  into->hits_at_1 += from.hits_at_1 / n;
  into->hits_at_5 += from.hits_at_5 / n;
  into->hits_at_10 += from.hits_at_10 / n;
  into->num_tasks += from.num_tasks;
}
}  // namespace

ModelRun RunModel(ModelKind kind, const DekgDataset& dataset,
                  const ExperimentConfig& config, bool measure_time) {
  if (config.runs > 1) {
    // Average metrics over independent seeds (paper protocol with 5 runs).
    ModelRun averaged;
    for (int32_t i = 0; i < config.runs; ++i) {
      ExperimentConfig single = config;
      single.runs = 1;
      single.seed = config.seed + static_cast<uint64_t>(i) * 1009;
      ModelRun run = RunModel(kind, dataset, single, measure_time && i == 0);
      averaged.name = run.name;
      averaged.parameter_count = run.parameter_count;
      averaged.train_seconds_per_epoch += run.train_seconds_per_epoch / config.runs;
      if (i == 0) averaged.infer_seconds_per_50_links = run.infer_seconds_per_50_links;
      AverageInto(&averaged.result.overall, run.result.overall, config.runs);
      AverageInto(&averaged.result.enclosing, run.result.enclosing, config.runs);
      AverageInto(&averaged.result.bridging, run.result.bridging, config.runs);
      AverageInto(&averaged.result.head_task, run.result.head_task, config.runs);
      AverageInto(&averaged.result.tail_task, run.result.tail_task, config.runs);
      AverageInto(&averaged.result.relation_task, run.result.relation_task,
                  config.runs);
    }
    return averaged;
  }
  ModelRun run;
  run.name = ModelKindName(kind);
  Timer train_timer;
  int32_t epochs_run = 1;

  switch (kind) {
    case ModelKind::kTransE:
    case ModelKind::kRotatE:
    case ModelKind::kConvE: {
      baselines::KgeConfig kge;
      kge.num_entities = dataset.num_total_entities();
      kge.num_relations = dataset.num_relations();
      kge.dim = config.dim;
      kge.seed = config.seed ^ 0x11;
      std::unique_ptr<baselines::KgeModel> model;
      if (kind == ModelKind::kTransE) {
        model = std::make_unique<baselines::TransE>(kge);
      } else if (kind == ModelKind::kRotatE) {
        model = std::make_unique<baselines::RotatE>(kge);
      } else {
        model = std::make_unique<baselines::ConvE>(kge);
      }
      baselines::KgeTrainConfig train;
      train.epochs = config.kge_epochs;
      train.seed = config.seed ^ 0x22;
      epochs_run = train.epochs;
      train_timer.Restart();
      baselines::TrainKgeModel(model.get(), dataset, train);
      run.train_seconds_per_epoch =
          train_timer.ElapsedSeconds() / epochs_run;
      run.parameter_count = model->ParameterCount();
      TimedEval eval = EvaluateModel(model.get(), dataset, config, measure_time);
      run.result = eval.result;
      run.infer_seconds_per_50_links = eval.infer_seconds_per_50;
      return run;
    }
    case ModelKind::kGen: {
      baselines::KgeConfig kge;
      kge.num_entities = dataset.num_total_entities();
      kge.num_relations = dataset.num_relations();
      kge.dim = config.dim;
      kge.seed = config.seed ^ 0x33;
      baselines::Gen model(kge);
      model.SetEmergingRange(dataset.num_original_entities(),
                             dataset.num_total_entities());
      baselines::KgeTrainConfig train;
      train.epochs = std::max(10, config.kge_epochs / 2);
      train.seed = config.seed ^ 0x44;
      epochs_run = train.epochs;
      train_timer.Restart();
      baselines::TrainGen(&model, dataset, train);
      run.train_seconds_per_epoch = train_timer.ElapsedSeconds() / epochs_run;
      run.parameter_count = model.ParameterCount();
      TimedEval eval = EvaluateModel(&model, dataset, config, measure_time);
      run.result = eval.result;
      run.infer_seconds_per_50_links = eval.infer_seconds_per_50;
      return run;
    }
    case ModelKind::kMean: {
      baselines::KgeConfig kge;
      kge.num_entities = dataset.num_total_entities();
      kge.num_relations = dataset.num_relations();
      kge.dim = config.dim;
      kge.seed = config.seed ^ 0x99;
      baselines::Mean model(kge);
      model.SetEmergingRange(dataset.num_original_entities(),
                             dataset.num_total_entities());
      baselines::KgeTrainConfig train;
      train.epochs = config.kge_epochs;
      train.seed = config.seed ^ 0x9a;
      epochs_run = train.epochs;
      train_timer.Restart();
      baselines::TrainKgeModel(&model, dataset, train);
      run.train_seconds_per_epoch = train_timer.ElapsedSeconds() / epochs_run;
      run.parameter_count = model.ParameterCount();
      TimedEval eval = EvaluateModel(&model, dataset, config, measure_time);
      run.result = eval.result;
      run.infer_seconds_per_50_links = eval.infer_seconds_per_50;
      return run;
    }
    case ModelKind::kNeuralLp: {
      baselines::NeuralLpConfig nlp;
      nlp.num_relations = dataset.num_relations();
      baselines::NeuralLp model(nlp, config.seed ^ 0x9b);
      core::TrainConfig train;
      train.epochs = config.subgraph_epochs;
      train.max_triples_per_epoch = config.subgraph_triples_per_epoch;
      train.lr = 0.1;  // attention logits train well with a larger step
      train.seed = config.seed ^ 0x9c;
      epochs_run = train.epochs;
      train_timer.Restart();
      const KnowledgeGraph& graph = dataset.original_graph();
      core::Trainer(&model, &dataset, train,
                    core::MarginLoss(&dataset, train.negatives_per_positive,
                                     [&](const Triple& t, const Subgraph*,
                                         Rng*) {
                                       return model.ScoreLink(graph, t);
                                     }),
                    nullptr, model.Name())
          .Train();
      run.train_seconds_per_epoch = train_timer.ElapsedSeconds() / epochs_run;
      run.parameter_count = model.ParameterCount();
      TimedEval eval = EvaluateModel(&model, dataset, config, measure_time);
      run.result = eval.result;
      run.infer_seconds_per_50_links = eval.infer_seconds_per_50;
      return run;
    }
    case ModelKind::kRuleN: {
      baselines::RulenConfig rulen;
      baselines::RuleN model(rulen);
      train_timer.Restart();
      model.Mine(dataset);
      run.train_seconds_per_epoch = train_timer.ElapsedSeconds();
      run.parameter_count = model.ParameterCount();
      TimedEval eval = EvaluateModel(&model, dataset, config, measure_time);
      run.result = eval.result;
      run.infer_seconds_per_50_links = eval.infer_seconds_per_50;
      return run;
    }
    case ModelKind::kTact: {
      baselines::TactConfig tact;
      tact.num_relations = dataset.num_relations();
      tact.dim = config.dim;
      baselines::Tact model(tact, config.seed ^ 0x55);
      core::TrainConfig train;
      train.epochs = config.subgraph_epochs;
      train.max_triples_per_epoch = config.subgraph_triples_per_epoch;
      train.seed = config.seed ^ 0x66;
      epochs_run = train.epochs;
      train_timer.Restart();
      const KnowledgeGraph& graph = dataset.original_graph();
      core::Trainer(&model, &dataset, train,
                    core::MarginLoss(&dataset, train.negatives_per_positive,
                                     [&](const Triple& t,
                                         const Subgraph* subgraph, Rng* rng) {
                                       return model.ScoreLink(
                                           graph, t, /*training=*/true, rng,
                                           subgraph);
                                     }),
                    model.gsm(), model.Name())
          .Train();
      run.train_seconds_per_epoch = train_timer.ElapsedSeconds() / epochs_run;
      run.parameter_count = model.ParameterCount();
      TimedEval eval = EvaluateModel(&model, dataset, config, measure_time);
      run.result = eval.result;
      run.infer_seconds_per_50_links = eval.infer_seconds_per_50;
      return run;
    }
    case ModelKind::kGrail:
    case ModelKind::kDekgIlp:
    case ModelKind::kDekgIlpNoR:
    case ModelKind::kDekgIlpNoC:
    case ModelKind::kDekgIlpNoN:
    case ModelKind::kClrmOnly: {
      core::DekgIlpModel model(IlpConfig(kind, dataset, config),
                               config.seed ^ 0x77);
      core::TrainConfig train;
      train.epochs = config.subgraph_epochs;
      train.max_triples_per_epoch = config.subgraph_triples_per_epoch;
      train.seed = config.seed ^ 0x88;
      epochs_run = train.epochs;
      train_timer.Restart();
      core::DekgIlpTrainer trainer(&model, &dataset, train);
      trainer.Train();
      run.train_seconds_per_epoch = train_timer.ElapsedSeconds() / epochs_run;
      run.parameter_count = model.ParameterCount();
      core::DekgIlpPredictor predictor(&model);
      TimedEval eval =
          EvaluateModel(&predictor, dataset, config, measure_time);
      run.result = eval.result;
      run.infer_seconds_per_50_links = eval.infer_seconds_per_50;
      run.name = ModelKindName(kind);
      return run;
    }
  }
  DEKG_FATAL() << "unreachable";
  return run;
}

void PrintTableHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-14s %8s %8s %8s %8s\n", "Model", "MRR", "Hits@1", "Hits@5",
              "Hits@10");
}

void PrintMetricsRow(const std::string& name, const RankingMetrics& metrics) {
  std::printf("%-14s %8.3f %8.3f %8.3f %8.3f\n", name.c_str(), metrics.mrr,
              metrics.hits_at_1, metrics.hits_at_5, metrics.hits_at_10);
}

}  // namespace dekg::bench
