#include "eval/evaluator.h"

#include <algorithm>
#include <cstdio>

#include "common/thread_pool.h"

namespace dekg {

void RankingMetrics::Accumulate(double rank) {
  DEKG_CHECK_GE(rank, 1.0);
  mrr += 1.0 / rank;
  if (rank <= 1.0) hits_at_1 += 1.0;
  if (rank <= 5.0) hits_at_5 += 1.0;
  if (rank <= 10.0) hits_at_10 += 1.0;
  ++num_tasks;
}

void RankingMetrics::Merge(const RankingMetrics& other) {
  mrr += other.mrr;
  hits_at_1 += other.hits_at_1;
  hits_at_5 += other.hits_at_5;
  hits_at_10 += other.hits_at_10;
  num_tasks += other.num_tasks;
}

void RankingMetrics::Finalize() {
  if (num_tasks == 0) return;
  const double inv = 1.0 / static_cast<double>(num_tasks);
  mrr *= inv;
  hits_at_1 *= inv;
  hits_at_5 *= inv;
  hits_at_10 *= inv;
}

double RankOf(double positive_score,
              const std::vector<double>& negative_scores) {
  int64_t greater = 0;
  int64_t ties = 0;
  for (double s : negative_scores) {
    if (s > positive_score) {
      ++greater;
    } else if (s == positive_score) {
      ++ties;
    }
  }
  return 1.0 + static_cast<double>(greater) + static_cast<double>(ties) / 2.0;
}

namespace {

// Draws `count` filtered corruption candidates for one task. `corrupt_head`
// selects which slot is replaced.
std::vector<Triple> SampleEntityNegatives(const DekgDataset& dataset,
                                          const Triple& positive,
                                          bool corrupt_head, int32_t count,
                                          Rng* rng) {
  std::vector<Triple> negatives;
  negatives.reserve(static_cast<size_t>(count));
  const int32_t total = dataset.num_total_entities();
  int attempts = 0;
  while (static_cast<int32_t>(negatives.size()) < count &&
         attempts < count * 50) {
    ++attempts;
    EntityId candidate = static_cast<EntityId>(
        rng->UniformUint64(static_cast<uint64_t>(total)));
    Triple corrupted = positive;
    if (corrupt_head) {
      if (candidate == positive.head) continue;
      corrupted.head = candidate;
    } else {
      if (candidate == positive.tail) continue;
      corrupted.tail = candidate;
    }
    if (corrupted.head == corrupted.tail) continue;
    if (dataset.filter_set().count(corrupted) > 0) continue;  // filtered
    negatives.push_back(corrupted);
  }
  return negatives;
}

std::vector<Triple> RelationNegatives(const DekgDataset& dataset,
                                      const Triple& positive) {
  std::vector<Triple> negatives;
  for (RelationId r = 0; r < dataset.num_relations(); ++r) {
    if (r == positive.rel) continue;
    Triple corrupted = positive;
    corrupted.rel = r;
    if (dataset.filter_set().count(corrupted) > 0) continue;
    negatives.push_back(corrupted);
  }
  return negatives;
}

}  // namespace

EvalResult Evaluate(LinkPredictor* model, const DekgDataset& dataset,
                    const EvalConfig& config) {
  EvalResult result;
  const KnowledgeGraph& graph = dataset.inference_graph();

  const std::vector<LabeledLink>& links = dataset.test_links();
  int64_t num_links = static_cast<int64_t>(links.size());
  if (config.max_links > 0) {
    num_links = std::min<int64_t>(num_links, config.max_links);
  }
  const bool relation_task =
      config.include_relation_task && dataset.num_relations() > 1;

  // Ranks one link against its sampled candidates. Every stochastic choice
  // comes from a per-link Rng stream derived from (seed, link index), so
  // the outcome of link i does not depend on which thread computes it or
  // on how many other links ran before it — the precondition for
  // thread-count-invariant metrics.
  //
  // Task order within a link is fixed: head replacement, tail replacement,
  // then relation replacement (when enabled).
  struct LinkOutcome {
    std::vector<double> ranks;
  };
  std::vector<LinkOutcome> outcomes(static_cast<size_t>(num_links));
  auto rank_link = [&](int64_t i) {
    const LabeledLink& link = links[static_cast<size_t>(i)];
    Rng rng(MixSeed(config.seed, static_cast<uint64_t>(i)));

    std::vector<std::vector<Triple>> tasks;
    tasks.push_back(SampleEntityNegatives(dataset, link.triple,
                                          /*corrupt_head=*/true,
                                          config.num_entity_negatives, &rng));
    tasks.push_back(SampleEntityNegatives(dataset, link.triple,
                                          /*corrupt_head=*/false,
                                          config.num_entity_negatives, &rng));
    if (relation_task) {
      tasks.push_back(RelationNegatives(dataset, link.triple));
    }

    // One batched scoring call per link: [positive, all negatives...].
    std::vector<Triple> batch{link.triple};
    for (const auto& negatives : tasks) {
      batch.insert(batch.end(), negatives.begin(), negatives.end());
    }
    const std::vector<double> scores =
        model->ScoreTriplesCached(graph, batch, config.subgraph_cache);
    DEKG_CHECK_EQ(scores.size(), batch.size());

    const double positive_score = scores[0];
    size_t offset = 1;
    LinkOutcome& out = outcomes[static_cast<size_t>(i)];
    out.ranks.reserve(tasks.size());
    for (const auto& negatives : tasks) {
      std::vector<double> negative_scores(
          scores.begin() + static_cast<ptrdiff_t>(offset),
          scores.begin() + static_cast<ptrdiff_t>(offset + negatives.size()));
      offset += negatives.size();
      out.ranks.push_back(RankOf(positive_score, negative_scores));
    }
  };

  const int32_t want_threads =
      config.num_threads > 0 ? config.num_threads : DefaultThreadCount();
  if (want_threads > 1 && num_links > 1 &&
      model->SupportsConcurrentScoring()) {
    auto body = [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) rank_link(i);
    };
    if (config.num_threads > 0) {
      ThreadPool pool(config.num_threads);
      pool.ParallelFor(0, num_links, /*grain=*/1, body);
    } else {
      DefaultThreadPool()->ParallelFor(0, num_links, /*grain=*/1, body);
    }
  } else {
    for (int64_t i = 0; i < num_links; ++i) rank_link(i);
  }

  // Serial merge in link order: accumulation order — and therefore every
  // floating-point sum — is independent of the thread count.
  for (int64_t i = 0; i < num_links; ++i) {
    const LabeledLink& link = links[static_cast<size_t>(i)];
    RankingMetrics* kind_bucket = link.kind == LinkKind::kEnclosing
                                      ? &result.enclosing
                                      : &result.bridging;
    RankingMetrics* task_buckets[] = {&result.head_task, &result.tail_task,
                                      &result.relation_task};
    const LinkOutcome& out = outcomes[static_cast<size_t>(i)];
    for (size_t task = 0; task < out.ranks.size(); ++task) {
      const double rank = out.ranks[task];
      result.overall.Accumulate(rank);
      kind_bucket->Accumulate(rank);
      task_buckets[task]->Accumulate(rank);
      if (config.collect_ranks) result.ranks.push_back(rank);
    }
  }

  result.overall.Finalize();
  result.enclosing.Finalize();
  result.bridging.Finalize();
  result.head_task.Finalize();
  result.tail_task.Finalize();
  result.relation_task.Finalize();
  return result;
}

std::string GoldenSummary(const EvalResult& result) {
  std::string out;
  char buf[128];
  auto emit_group = [&](const char* group, const RankingMetrics& m) {
    const struct {
      const char* metric;
      double value;
    } rows[] = {{"mrr", m.mrr},
                {"hits_at_1", m.hits_at_1},
                {"hits_at_5", m.hits_at_5},
                {"hits_at_10", m.hits_at_10},
                {"num_tasks", static_cast<double>(m.num_tasks)}};
    for (const auto& row : rows) {
      std::snprintf(buf, sizeof(buf), "%s.%s\t%.17g\n", group, row.metric,
                    row.value);
      out += buf;
    }
  };
  emit_group("overall", result.overall);
  emit_group("enclosing", result.enclosing);
  emit_group("bridging", result.bridging);
  emit_group("head_task", result.head_task);
  emit_group("tail_task", result.tail_task);
  emit_group("relation_task", result.relation_task);
  return out;
}

}  // namespace dekg
