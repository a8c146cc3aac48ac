// train_eval: the paper's offline loop in-process (WORKLOADS.md) — rounds
// of a DekgIlpTrainer epoch, an Evaluate call and offline scoring calls,
// for the run's seconds, at kPoolThreads threads.
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "core/trainer.h"
#include "eval/evaluator.h"
#include "kg/dataset_io.h"
#include "nn/optimizer.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dekg::DekgDataset;
using dekg::KnowledgeGraph;
using dekg::Triple;

constexpr int kSetupRepeats = 21;
// One training epoch per round.
constexpr int32_t kExamplesPerEpoch = 128;
// Each round evaluates one of kEvalChunks chunks of the evaluation links,
// in turn; chunk c holds links c, c + kEvalChunks, ..., so every chunk
// spans their cost range.
constexpr size_t kEvalChunks = 4;
// Offline scoring calls per round, and candidates per call: enough work
// per call that the tail reflects scoring, not the host's
// millisecond-scale stalls.
constexpr size_t kCallsPerRound = 160;
constexpr size_t kCallTriples = 8;
// Rounds a run makes at least, however short its seconds: over 1,000
// scoring calls in all. score.p99_ms is the median of the rounds' p99s,
// so one round through a slow stretch of the host does not set it.
constexpr int kMinRounds = 7;
// Training examples the traced run replays stage by stage.
constexpr int32_t kReplayExamples = 64;

// Forwards to a predictor and counts the triples Evaluate asks it to
// score, so Evaluate's throughput can be stated in triples.
class CountingPredictor : public dekg::LinkPredictor {
 public:
  explicit CountingPredictor(dekg::LinkPredictor* inner) : inner_(inner) {}
  std::string Name() const override { return inner_->Name(); }
  std::vector<double> ScoreTriples(const KnowledgeGraph& graph,
                                   const std::vector<Triple>& triples) override {
    triples_ += static_cast<int64_t>(triples.size());
    return inner_->ScoreTriples(graph, triples);
  }
  std::vector<double> ScoreTriplesCached(const KnowledgeGraph& graph,
                                         const std::vector<Triple>& triples,
                                         const dekg::SubgraphCache* cache) override {
    triples_ += static_cast<int64_t>(triples.size());
    return inner_->ScoreTriplesCached(graph, triples, cache);
  }
  bool SupportsConcurrentScoring() const override {
    return inner_->SupportsConcurrentScoring();
  }
  int64_t ParameterCount() const override { return inner_->ParameterCount(); }
  int64_t triples() const { return triples_; }

 private:
  dekg::LinkPredictor* inner_;
  std::atomic<int64_t> triples_{0};
};

dekg::core::TrainConfig TrainSettings(uint64_t seed) {
  dekg::core::TrainConfig config;
  config.max_triples_per_epoch = kExamplesPerEpoch;
  config.num_threads = kPoolThreads;
  config.seed = dekg::MixSeed(seed, 4);
  return config;
}

dekg::EvalConfig EvalSettings(int32_t threads) {
  dekg::EvalConfig config;
  config.num_threads = threads;
  return config;
}

// The dataset with its test links replaced by the links at `indices`.
DekgDataset WithTestLinks(const DekgDataset& d,
                          const std::vector<int32_t>& indices) {
  std::vector<dekg::LabeledLink> links;
  for (int32_t i : indices) links.push_back(d.test_links()[static_cast<size_t>(i)]);
  return DekgDataset(d.name() + "-sample", d.num_original_entities(),
                     d.num_emerging_entities(), d.num_relations(),
                     d.train_triples(), d.emerging_triples(), d.valid_links(),
                     std::move(links));
}

// One epoch of DekgIlpTrainer::TrainEpoch taken apart: the positives'
// extraction, then per example the taped forward (positive and
// negative), the contrastive term and the backward pass, and per batch
// the optimizer step — each timed as a span on a fresh model, serially.
std::vector<Metric> ReplayTraining(const DekgDataset& dataset, uint64_t seed,
                                   Tracer* tracer) {
  dekg::core::DekgIlpModel model(ModelConfig(dataset.num_relations()), 1);
  const dekg::core::TrainConfig config = TrainSettings(seed);
  const KnowledgeGraph& graph = dataset.original_graph();
  dekg::Rng rng(config.seed);
  std::vector<Triple> triples = dataset.train_triples();
  rng.Shuffle(&triples);
  triples.resize(std::min<size_t>(triples.size(), kReplayExamples));
  const uint64_t epoch_seed = rng.NextUint64();

  std::vector<dekg::Subgraph> subgraphs;
  const int64_t extract = tracer->Time("gsm.ExtractBatch", -1, -1, [&] {
    subgraphs = model.gsm()->ExtractBatch(graph, triples);
  });
  dekg::SetDefaultThreadCount(1);
  dekg::nn::Adam::Options adam_options;
  adam_options.lr = config.lr;
  dekg::nn::Adam adam(&model, adam_options);
  std::vector<dekg::ag::GradSink> sinks;
  const size_t batch = static_cast<size_t>(config.batch_size);
  while (sinks.size() < batch) sinks.push_back(model.MakeGradSink());
  const float margin = static_cast<float>(model.config().margin);
  const float sigma = static_cast<float>(model.config().sigma);
  double forward_s = 0.0, contrastive_s = 0.0, backward_s = 0.0,
         optimizer_s = 0.0;
  int64_t steps = 0;
  for (size_t begin = 0; begin < triples.size(); begin += batch) {
    const size_t used = std::min(batch, triples.size() - begin);
    model.ZeroGrad();
    const int64_t step = tracer->Open("trainer.Batch", -1, static_cast<int64_t>(begin));
    const double step_start = Now();
    for (size_t slot = 0; slot < used; ++slot) {
      const size_t i = begin + slot;
      dekg::Rng ex_rng(dekg::MixSeed(epoch_seed, i));
      dekg::ag::Var loss;
      const int64_t f = tracer->Time("core.ScoreLink(train)", step, static_cast<int64_t>(i), [&] {
        dekg::ag::Var pos = model.ScoreLink(graph, triples[i], true, &ex_rng,
                                            &subgraphs[i]);
        const Triple negative =
            dekg::core::SampleNegativeTriple(dataset, triples[i], &ex_rng);
        dekg::ag::Var neg = model.ScoreLink(graph, negative, true, &ex_rng);
        loss = dekg::ag::Relu(
            dekg::ag::AddScalar(dekg::ag::Sub(neg, pos), margin));
      });
      forward_s += tracer->Duration(f);
      const int64_t c = tracer->Time("clrm.ContrastiveLossForLink", step, static_cast<int64_t>(i), [&] {
        dekg::ag::Var contrastive =
            model.ContrastiveLossForLink(graph, triples[i], &ex_rng);
        if (contrastive.defined()) {
          loss = dekg::ag::Add(loss, dekg::ag::MulScalar(contrastive, sigma));
        }
      });
      contrastive_s += tracer->Duration(c);
      dekg::ag::GradSink& sink = sinks[slot];
      sink.Reset();
      const int64_t b = tracer->Time("autograd.Backward", step, static_cast<int64_t>(i),
                                     [&] { loss.Backward(&sink); });
      backward_s += tracer->Duration(b);
    }
    const int64_t o = tracer->Time("nn.Adam.Step", step, static_cast<int64_t>(begin), [&] {
      model.AccumulateShardedGrads(sinks, used);
      dekg::nn::ClipGradNorm(&model, config.grad_clip);
      adam.Step();
    });
    optimizer_s += tracer->Duration(o);
    tracer->Close(step, step_start, Now());
    ++steps;
  }
  dekg::SetDefaultThreadCount(kPoolThreads);
  const double n = static_cast<double>(triples.size());
  return {
      {"trainer.extract_ms_per_epoch",
       tracer->Duration(extract) * 1e3 * kExamplesPerEpoch / n},
      {"core.forward_ms_per_example", forward_s * 1e3 / n},
      {"clrm.contrastive_ms_per_example", contrastive_s * 1e3 / n},
      {"autograd.backward_ms_per_example", backward_s * 1e3 / n},
      {"nn.optimizer_ms_per_step", Ratio(optimizer_s * 1e3, steps)},
  };
}

// Offline scoring of one link's head-replacement candidates, and the
// extraction of each candidate's subgraph.
std::vector<Metric> ReplayScoring(const DekgDataset& dataset,
                                  dekg::core::DekgIlpModel* model,
                                  uint64_t seed, Tracer* tracer) {
  const KnowledgeGraph& graph = dataset.inference_graph();
  dekg::Rng rng(dekg::MixSeed(seed, 5));
  const Triple link = dataset.test_links().front().triple;
  std::vector<Triple> candidates = {link};
  while (candidates.size() < 50) {
    Triple t = link;
    t.head = static_cast<dekg::EntityId>(rng.UniformUint64(
        static_cast<uint64_t>(dataset.num_total_entities())));
    candidates.push_back(t);
  }
  dekg::core::DekgIlpPredictor predictor(model);
  const int64_t score = tracer->Time("eval.ScoreTriples", -1, -1, [&] {
    predictor.ScoreTriples(graph, candidates);
  });
  dekg::SubgraphWorkspace workspace;
  double extract_s = 0.0, nodes = 0.0, edges = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    dekg::Subgraph sub;
    const int64_t id = tracer->Time("graph.Extract", -1, static_cast<int64_t>(i), [&] {
      sub = model->gsm()->Extract(graph, candidates[i], &workspace);
    });
    extract_s += tracer->Duration(id);
    nodes += static_cast<double>(sub.nodes.size());
    edges += static_cast<double>(sub.edges.size());
  }
  const double n = static_cast<double>(candidates.size());
  return {
      {"eval.score_ms_per_triple", tracer->Duration(score) * 1e3 / n},
      {"graph.extract_us", extract_s * 1e6 / n},
      {"graph.nodes_per_subgraph", nodes / n},
      {"graph.edges_per_subgraph", edges / n},
  };
}

}  // namespace

RunResult RunTrainWorkload(const RunOptions& options) {
  RunResult result;
  const TrainInputs in = LoadTrainInputs(
      EnsureInputs(options.workload, options.seed, options.work_dir + "/inputs"));
  PinTo(SplitCpus().measured);
  dekg::SetDefaultThreadCount(kPoolThreads);
  Tracer tracer;
  const double traced_start = Now();

  // Set-up: dataset load through trainer construction, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<DekgDataset> dataset;
  std::unique_ptr<dekg::core::DekgIlpModel> model;
  std::unique_ptr<dekg::core::DekgIlpTrainer> trainer;
  double kg_load_s = 0.0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    trainer.reset();
    model.reset();
    dataset.reset();
    const double start = Now();
    dataset = std::make_unique<DekgDataset>(
        dekg::LoadDekgDatasetDir(in.data_dir, "train_eval"));
    kg_load_s += Now() - start;
    model = std::make_unique<dekg::core::DekgIlpModel>(
        ModelConfig(dataset->num_relations()), 1);
    trainer = std::make_unique<dekg::core::DekgIlpTrainer>(
        model.get(), dataset.get(), TrainSettings(options.seed));
    setup_s.push_back(Now() - start);
  }
  kg_load_s /= kSetupRepeats;

  std::vector<DekgDataset> eval_views;
  for (size_t c = 0; c < kEvalChunks; ++c) {
    std::vector<int32_t> chunk;
    for (size_t j = c; j < in.eval_links.size(); j += kEvalChunks) {
      chunk.push_back(in.eval_links[j]);
    }
    eval_views.push_back(WithTestLinks(*dataset, chunk));
  }
  dekg::core::DekgIlpPredictor predictor(model.get());
  CountingPredictor counting(&predictor);
  const size_t calls = in.latency_triples.size() / kCallTriples;

  // Rounds of a training epoch, an Evaluate call and offline scoring
  // calls, until the run's seconds are up: every phase then samples the
  // whole run, and a drift of the host's speed moves each metric a little
  // instead of one metric a lot.
  double train_s = 0.0;
  double eval_s = 0.0;
  double eval_links = 0.0;
  std::vector<double> epoch_s;
  std::vector<double> latency_ms;
  std::vector<double> round_p99_ms;
  const double rounds_start = Now();
  int rounds = 0;
  for (; rounds < kMinRounds || Now() - rounds_start < options.seconds; ++rounds) {
    // Training; the epoch's cache prefill is part of it.
    double loss = 0.0;
    const int64_t id = tracer.Time("trainer.TrainEpoch", -1, rounds,
                                   [&] { loss = trainer->TrainEpoch(); });
    epoch_s.push_back(tracer.Duration(id));
    train_s += tracer.Duration(id);
    result.attempted += kExamplesPerEpoch;
    if (!std::isfinite(loss)) result.failed += kExamplesPerEpoch;

    // Evaluate over one chunk of the stratified links.
    const DekgDataset& view = eval_views[static_cast<size_t>(rounds) % kEvalChunks];
    const int64_t eval_span = tracer.Time("eval.Evaluate", -1, rounds, [&] {
      dekg::Evaluate(&counting, view, EvalSettings(kPoolThreads));
    });
    eval_s += tracer.Duration(eval_span);
    eval_links += static_cast<double>(view.test_links().size());

    // Offline scoring calls of kCallTriples candidates each, on one
    // thread: split over the pool, a call this small spends about as long
    // handing off as scoring, and the hand-offs' wake-ups made its
    // latency swing by a fifth between runs.
    dekg::SetDefaultThreadCount(1);
    const size_t round_first = latency_ms.size();
    for (size_t k = 0; k < kCallsPerRound; ++k) {
      const size_t i =
          (static_cast<size_t>(rounds) * kCallsPerRound + k) % calls * kCallTriples;
      const std::vector<Triple> call(
          in.latency_triples.begin() + static_cast<int64_t>(i),
          in.latency_triples.begin() + static_cast<int64_t>(i + kCallTriples));
      const double start = Now();
      const std::vector<double> s =
          predictor.ScoreTriples(dataset->inference_graph(), call);
      latency_ms.push_back((Now() - start) * 1e3);
      bool ok = s.size() == call.size();
      for (double v : s) ok = ok && std::isfinite(v);
      ++result.attempted;
      if (!ok) ++result.failed;
    }
    round_p99_ms.push_back(Quantile(
        {latency_ms.begin() + static_cast<int64_t>(round_first), latency_ms.end()},
        0.99));
    dekg::SetDefaultThreadCount(kPoolThreads);
  }
  const double train_examples = static_cast<double>(rounds) * kExamplesPerEpoch;
  // Each example scores its positive and one negative.
  const double train_triples_per_s = 2.0 * train_examples / train_s;
  const double eval_triples_per_s = static_cast<double>(counting.triples()) / eval_s;

  // Gate: a seeded sample of links evaluated at kPoolThreads threads must
  // give the same GoldenSummary as a serial Evaluate.
  const DekgDataset gate_view = WithTestLinks(*dataset, in.gate_links);
  const std::string parallel = dekg::GoldenSummary(
      dekg::Evaluate(&predictor, gate_view, EvalSettings(kPoolThreads)));
  const std::string serial =
      dekg::GoldenSummary(dekg::Evaluate(&predictor, gate_view, EvalSettings(1)));
  const bool gate = parallel == serial;
  ++result.attempted;
  if (!gate) ++result.failed;
  Log("%d rounds: train %.1f examples/s over %d x %d; Evaluate %.2f links/s, "
      "%.0f triples/link; scoring call p50 %.2f ms, p99 %.2f ms (median of "
      "rounds; %zu calls); gate %s",
      rounds, train_examples / train_s, rounds, kExamplesPerEpoch, eval_links / eval_s,
      static_cast<double>(counting.triples()) / eval_links,
      Quantile(latency_ms, 0.5), Median(round_p99_ms), latency_ms.size(),
      gate ? "ok" : "MISMATCH");

  if (!options.trace) {
    result.metrics = {
        {"setup_s", Median(setup_s)},
        {"score_triples_per_s", train_triples_per_s},
        {"cold_triples_per_s", eval_triples_per_s},
        {"rss_peak_mb", PeakRssMb(0)},
    };
  } else {
    result.metrics = {
        {"kg.load_s", kg_load_s},
        {"trainer.epoch_s", Median(epoch_s)},
        {"trainer.examples_per_s", train_examples / train_s},
        {"eval.links_per_s", eval_links / eval_s},
        {"eval.triples_per_link",
         static_cast<double>(counting.triples()) / eval_links},
        {"score.p50_ms", Quantile(latency_ms, 0.5)},
        {"score.p99_ms", Median(round_p99_ms)},
        {"score.p99_samples", static_cast<double>(latency_ms.size())},
    };
    for (const Metric& m : ReplayTraining(*dataset, options.seed, &tracer)) {
      result.metrics.push_back(m);
    }
    for (const Metric& m : ReplayScoring(*dataset, model.get(), options.seed, &tracer)) {
      result.metrics.push_back(m);
    }
    result.metrics.push_back(
        {"trace.overhead_share",
         Ratio(Tracer::CostPerSpan() * static_cast<double>(tracer.size()),
               Now() - traced_start)});
    tracer.Report(WorkloadName(options.workload));
    tracer.Write(options.work_dir + "/" + WorkloadName(options.workload) + "-" +
                 std::to_string(options.seed) + ".spans.tsv");
  }
  result.correct = gate && result.failed == 0;
  return result;
}

}  // namespace perfbench
