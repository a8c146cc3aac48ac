// Sharded serving acceptance (DESIGN.md §14): routing is a pure
// function of (entity id, shard count) pinned down to exact hash bits;
// consistent-hash growth moves keys only to the new shard; the router's
// index-ordered fan-in is bit-identical to the single-engine (and
// offline) path at every shard count × pipeline depth, also while a
// second connection ingests; and epoch-snapshot ingest never blocks an
// engine scoring concurrently over the same writer, which converges to
// the static BuildGraph oracle at every epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dekg_ilp.h"
#include "datagen/synthetic_kg.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_map.h"
#include "serve/snapshot.h"

namespace dekg::serve {
namespace {

DekgDataset SyntheticDataset() {
  datagen::SchemaConfig schema;
  schema.num_types = 5;
  schema.num_relations = 14;
  schema.num_entities = 160;
  datagen::SplitConfig split;
  split.max_test_links = 40;
  return datagen::MakeDekgDataset("serve", schema, split, /*seed=*/21);
}

core::DekgIlpConfig SmallModelConfig(int32_t num_relations) {
  core::DekgIlpConfig config;
  config.num_relations = num_relations;
  config.dim = 8;
  return config;
}

std::vector<Triple> TestTriples(const DekgDataset& dataset, size_t limit) {
  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    triples.push_back(link.triple);
    if (triples.size() >= limit) break;
  }
  return triples;
}

std::vector<ScoreItem> ItemsFor(const std::vector<Triple>& triples,
                                uint64_t request_seed = 123) {
  std::vector<ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(request_seed, i)});
  }
  return items;
}

TEST(ShardRoutingTest, MixHash64IsPinnedToExactBits) {
  // Routing is defined by these exact values: fixed splitmix64 mixing
  // constants, no std::hash, no process state. A platform or refactor
  // that changes any bit here silently reshuffles every shard-local
  // cache, so the constants are pinned.
  EXPECT_EQ(MixHash64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(MixHash64(1), 0x910A2DEC89025CC1ull);
  EXPECT_EQ(MixHash64(42), 0xBDD732262FEB6E95ull);
  EXPECT_EQ(MixHash64(160), 0x911B6C48E11C7F00ull);
  EXPECT_EQ(MixHash64(1ull << 40), 0x1FDD7128F310C389ull);
}

TEST(ShardRoutingTest, RoutingIsAPureFunctionOfEntityAndShardCount) {
  // Two independently built maps agree everywhere, routes are in range,
  // and a handful of assignments are pinned (stable across runs,
  // platforms, and construction order — the property the shard-local
  // caches rely on).
  for (int32_t shards : {1, 2, 3, 4, 8}) {
    ShardMap a(shards);
    ShardMap b(shards);
    for (EntityId e = 0; e < 2000; ++e) {
      const int32_t s = a.ShardOfEntity(e);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      ASSERT_EQ(s, b.ShardOfEntity(e)) << "shards " << shards << " e " << e;
    }
  }
  ShardMap one(1);
  for (EntityId e = 0; e < 100; ++e) EXPECT_EQ(one.ShardOfEntity(e), 0);
  ShardMap four(4);
  EXPECT_EQ(four.ShardOfEntity(0), 0);
  EXPECT_EQ(four.ShardOfEntity(1), 1);
  EXPECT_EQ(four.ShardOfEntity(7), 1);
  EXPECT_EQ(four.ShardOfEntity(42), 3);
  EXPECT_EQ(four.ShardOfEntity(159), 0);
  // Triple routing is by head endpoint only.
  EXPECT_EQ(four.ShardOfTriple({42, 5, 0}), four.ShardOfEntity(42));
  EXPECT_EQ(four.ShardOfTriple({42, 9, 159}), four.ShardOfEntity(42));
}

TEST(ShardRoutingTest, EightShardsStayRoughlyBalanced) {
  ShardMap map(8);
  std::vector<int> counts(8, 0);
  const EntityId n = 20000;
  for (EntityId e = 0; e < n; ++e) ++counts[static_cast<size_t>(map.ShardOfEntity(e))];
  for (int32_t s = 0; s < 8; ++s) {
    // Expected share 12.5%; 64 vnodes per shard keep every shard within
    // a comfortable [6%, 20%] band (measured: 9.6%–14.6%).
    EXPECT_GE(counts[static_cast<size_t>(s)], n * 6 / 100) << "shard " << s;
    EXPECT_LE(counts[static_cast<size_t>(s)], n * 20 / 100) << "shard " << s;
  }
}

TEST(ShardRoutingTest, GrowthMovesKeysOnlyToTheNewShard) {
  for (int32_t n = 1; n < 8; ++n) {
    ShardMap before(n);
    ShardMap after(n + 1);
    int moved = 0;
    for (EntityId e = 0; e < 20000; ++e) {
      const int32_t sb = before.ShardOfEntity(e);
      const int32_t sa = after.ShardOfEntity(e);
      if (sb == sa) continue;
      ++moved;
      // Consistency: adding a shard only adds ring points, so a key
      // either keeps its shard or lands on the newcomer — never
      // shuffles between surviving shards.
      ASSERT_EQ(sa, n) << "n " << n << " entity " << e << " moved " << sb
                       << " -> " << sa;
    }
    EXPECT_GT(moved, 0) << "n " << n;  // the new shard takes real load
    EXPECT_LT(moved, 20000 * 6 / 10) << "n " << n;
  }
}

TEST(ShardRoutingTest, RouterFanInMatchesSingleEngineBitwise) {
  // Router::ScoreBatch partitions by shard and merges with
  // index-ordered fan-in; the result must be bit-identical to the
  // standalone single engine for every shard count, warm or cold.
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 16);
  ASSERT_GE(triples.size(), 8u);

  Router single(&model, dataset.inference_graph(), RouterConfig{});
  const std::vector<double> reference = single.ScoreBatch(ItemsFor(triples));

  for (int32_t shards : {1, 2, 3, 8}) {
    // memo on: the warm pass replays per-shard memoized scores. memo
    // off: the warm pass re-runs the pipeline over the per-shard
    // subgraph caches. Both must reproduce the reference bits.
    for (bool memo : {true, false}) {
      RouterConfig config;
      config.num_shards = shards;
      if (!memo) config.engine.score_memo_capacity = 0;
      Router router(&model, dataset.inference_graph(), config);
      const std::vector<double> cold = router.ScoreBatch(ItemsFor(triples));
      const std::vector<double> warm = router.ScoreBatch(ItemsFor(triples));
      ASSERT_EQ(cold.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(cold[i], reference[i])
            << "shards " << shards << " memo " << memo << " triple " << i;
        EXPECT_EQ(warm[i], reference[i])
            << "shards " << shards << " memo " << memo << " warm triple " << i;
      }
      const EngineStats stats = router.Stats();
      if (memo) {
        // Every warm score replayed from the memo of exactly the shard
        // the triple routes to; the subgraph caches were never re-read.
        EXPECT_EQ(stats.memo_hits, triples.size());
        EXPECT_EQ(stats.cache_hits, 0u);
      } else {
        // Every triple was cached exactly where it routes: the warm
        // pass is all hits, summed across the per-shard caches.
        EXPECT_EQ(stats.cache_hits, triples.size());
      }
    }
  }
}

TEST(ShardRoutingTest, PipelinedTcpScoresMatchGoldenAtEveryShardCountAndDepth) {
  // The full stack — sharded router, batcher, server pipelining, client
  // windowing — at shard counts {1, 2, 3, 8} × pipeline depths
  // {1, 4, 16}, always bit-identical to the single-request single-shard
  // golden scores. Then a second connection ingests the emerging triples
  // in chunks while the first keeps scoring at depth 16: every mid-churn
  // score is some epoch's offline score, epochs never go back along the
  // sweep, and every configuration converges to the post-ingest golden.
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 24);
  ASSERT_GE(triples.size(), 16u);

  // The ingest chunks, and each triple's offline score at every epoch
  // they step through: epoch e serves BuildGraph over the base triples
  // plus the first e chunks.
  constexpr size_t kChunks = 8;
  const std::vector<Triple>& emerging = dataset.emerging_triples();
  ASSERT_GE(emerging.size(), kChunks);
  std::vector<std::vector<Triple>> chunks;
  for (size_t c = 0; c < kChunks; ++c) {
    chunks.emplace_back(
        emerging.begin() + static_cast<int64_t>(c * emerging.size() / kChunks),
        emerging.begin() +
            static_cast<int64_t>((c + 1) * emerging.size() / kChunks));
  }
  std::vector<std::vector<double>> offline_at_epoch;
  {
    core::DekgIlpPredictor predictor(&model);
    std::vector<Triple> prefix = dataset.original_graph().Triples();
    for (size_t e = 0; e <= kChunks; ++e) {
      if (e > 0) {
        prefix.insert(prefix.end(), chunks[e - 1].begin(),
                      chunks[e - 1].end());
      }
      const KnowledgeGraph oracle =
          BuildGraph(dataset.inference_graph().num_entities(),
                     dataset.num_relations(), prefix);
      offline_at_epoch.push_back(predictor.ScoreTriples(oracle, triples));
    }
  }

  // Golden references: the standalone engine pre- and post-ingest.
  std::vector<double> golden_before;
  std::vector<double> golden_after;
  {
    Router engine(&model, dataset.original_graph(), RouterConfig{});
    golden_before = engine.ScoreBatch(ItemsFor(triples));
    IngestResponse ingested;
    engine.Ingest(dataset.emerging_triples(), &ingested);
    ASSERT_EQ(ingested.status, Status::kOk) << ingested.error;
    golden_after = engine.ScoreBatch(ItemsFor(triples));
  }

  for (int32_t shards : {1, 2, 3, 8}) {
    RouterConfig router_config;
    router_config.num_shards = shards;
    Router router(&model, dataset.original_graph(), router_config);
    MicroBatcher batcher(&router, BatcherConfig{});
    ScoringServer server(&batcher, ServerConfig{});
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

      // Single-triple requests carrying their logical index, so the
      // concatenation preserves each item's Rng stream exactly.
      std::vector<ScoreRequest> requests;
      for (size_t i = 0; i < triples.size(); ++i) {
        ScoreRequest request;
        request.request_id = i + 1;
        request.seed = 123;
        request.index_offset = i;
        request.triples = {triples[i]};
        requests.push_back(std::move(request));
      }
      for (size_t depth : {size_t{1}, size_t{4}, size_t{16}}) {
        std::vector<ScoreResponse> responses;
        ASSERT_TRUE(client.ScorePipelined(requests, depth, &responses, &error))
            << "shards " << shards << " depth " << depth << ": " << error;
        ASSERT_EQ(responses.size(), triples.size());
        for (size_t i = 0; i < responses.size(); ++i) {
          ASSERT_EQ(responses[i].status, Status::kOk) << responses[i].error;
          ASSERT_EQ(responses[i].scores.size(), 1u);
          EXPECT_EQ(responses[i].scores[0], golden_before[i])
              << "shards " << shards << " depth " << depth << " triple " << i;
        }
      }

      // Stats carry one block per shard, and the per-shard cache
      // counters sum to the aggregate.
      StatsResponse stats;
      ASSERT_TRUE(client.Stats(&stats, &error)) << error;
      ASSERT_EQ(stats.shards.size(), static_cast<size_t>(shards));
      uint64_t hits = 0;
      uint64_t misses = 0;
      for (size_t s = 0; s < stats.shards.size(); ++s) {
        EXPECT_EQ(stats.shards[s].shard, static_cast<uint32_t>(s));
        hits += stats.shards[s].cache_hits;
        misses += stats.shards[s].cache_misses;
      }
      EXPECT_EQ(hits, stats.cache_hits);
      EXPECT_EQ(misses, stats.cache_misses);
      EXPECT_EQ(stats.epoch, 0u);

      // Churn: a second connection sends the chunks while this one
      // repeats depth-16 sweeps until the writer has finished, so the
      // sweeps span the whole ingest window. The writer only records
      // what happened; it is checked after the join.
      std::atomic<bool> writer_done{false};
      std::vector<IngestResponse> ingested(kChunks);
      size_t chunks_sent = 0;
      std::string writer_error;
      std::thread writer([&] {
        Client ingest_client;
        if (ingest_client.Connect("127.0.0.1", server.port(),
                                  &writer_error)) {
          for (; chunks_sent < kChunks; ++chunks_sent) {
            IngestRequest ingest;
            ingest.request_id = 77 + chunks_sent;
            ingest.triples = chunks[chunks_sent];
            if (!ingest_client.Ingest(ingest, &ingested[chunks_sent],
                                      &writer_error)) {
              break;
            }
          }
        }
        writer_done.store(true, std::memory_order_release);
      });
      // Greedy epoch tracking: each response takes the smallest epoch at
      // or after the previous response's whose offline score it equals,
      // which finds a non-decreasing assignment whenever one exists.
      size_t epoch = 0;
      bool churn_ok = true;
      bool writer_finished = false;
      do {
        writer_finished = writer_done.load(std::memory_order_acquire);
        std::vector<ScoreResponse> responses;
        if (!client.ScorePipelined(requests, 16, &responses, &error)) {
          ADD_FAILURE() << "shards " << shards << " mid-churn: " << error;
          churn_ok = false;
          break;
        }
        for (size_t i = 0; i < responses.size(); ++i) {
          if (responses[i].status != Status::kOk ||
              responses[i].scores.size() != 1) {
            ADD_FAILURE() << "shards " << shards << " mid-churn triple " << i
                          << ": " << responses[i].error;
            churn_ok = false;
            break;
          }
          size_t e = epoch;
          while (e <= kChunks &&
                 responses[i].scores[0] != offline_at_epoch[e][i]) {
            ++e;
          }
          if (e > kChunks) {
            ADD_FAILURE() << "shards " << shards << " mid-churn triple " << i
                          << " matches no offline score at epoch >= "
                          << epoch;
            churn_ok = false;
            break;
          }
          epoch = e;
        }
      } while (churn_ok && !writer_finished);
      writer.join();
      ASSERT_TRUE(churn_ok);
      ASSERT_EQ(chunks_sent, kChunks) << writer_error;
      for (size_t c = 0; c < kChunks; ++c) {
        ASSERT_EQ(ingested[c].status, Status::kOk) << ingested[c].error;
        EXPECT_EQ(ingested[c].request_id, 77 + c);
      }

      // With both connections done, the pipelined sweep must produce the
      // post-ingest golden bits.
      std::vector<ScoreResponse> responses;
      ASSERT_TRUE(client.ScorePipelined(requests, 4, &responses, &error))
          << error;
      for (size_t i = 0; i < responses.size(); ++i) {
        ASSERT_EQ(responses[i].status, Status::kOk) << responses[i].error;
        EXPECT_EQ(responses[i].scores[0], golden_after[i])
            << "shards " << shards << " post-ingest triple " << i;
      }

      ASSERT_TRUE(client.Stats(&stats, &error)) << error;
      EXPECT_EQ(stats.epoch, kChunks);
    }
    server.RequestStop();
    server.Wait();
  }
}

TEST(ShardRoutingTest, SnapshotSwapIngestNeverBlocksAConcurrentReader) {
  // One writer thread ingests chunk after chunk through the
  // SnapshotWriter while a free-running reader scores the same request
  // over and over on an InferenceEngine over that writer, which catches
  // its cache up at the start of each batch. The reader must keep
  // completing batches between consecutive publishes (reader progress —
  // ingest never blocks scoring), and every batch that ran entirely
  // within one epoch must be bit-identical to the offline predictor on a
  // statically built graph of that epoch's triple prefix.
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 12);
  ASSERT_GE(triples.size(), 8u);

  SnapshotWriter writer(&model, dataset.original_graph(), LiveGraphConfig{});
  InferenceEngine engine(&model, &writer, EngineConfig{});

  std::mutex mutex;
  std::map<uint64_t, std::vector<double>> recorded;  // epoch -> scores
  std::atomic<uint64_t> reader_batches{0};
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Bracket with the *published snapshot* epoch: published_ is
      // monotonic, so equal epochs before and after the batch prove the
      // engine scored against exactly that epoch's snapshot.
      const uint64_t e0 = writer.Current()->epoch;
      std::vector<double> scores = engine.ScoreBatch(ItemsFor(triples));
      const uint64_t e1 = writer.Current()->epoch;
      reader_batches.fetch_add(1, std::memory_order_acq_rel);
      if (e0 == e1) {
        std::lock_guard<std::mutex> lock(mutex);
        recorded.emplace(e0, std::move(scores));
      }
    }
  });

  // Waits until the reader has recorded a stable-epoch batch for
  // `epoch`. Succeeding at all IS the reader-progress assertion: were
  // ingest to block scoring, no post-publish batch could complete.
  auto reader_recorded_epoch = [&](uint64_t epoch) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (recorded.count(epoch) > 0) return true;
      }
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::vector<std::vector<Triple>> prefixes;  // prefixes[e]: epoch e triples
  prefixes.push_back(dataset.original_graph().Triples());
  ASSERT_TRUE(reader_recorded_epoch(0)) << "no base-epoch batch completed";

  const std::vector<Triple>& emerging = dataset.emerging_triples();
  const size_t num_chunks = 8;
  const size_t chunk = (emerging.size() + num_chunks - 1) / num_chunks;
  for (size_t begin = 0; begin < emerging.size(); begin += chunk) {
    const size_t end = std::min(emerging.size(), begin + chunk);
    std::vector<Triple> batch(emerging.begin() + static_cast<int64_t>(begin),
                              emerging.begin() + static_cast<int64_t>(end));
    IngestReport report;
    std::string error;
    ASSERT_EQ(writer.Ingest(batch, &report, &error), Status::kOk) << error;
    std::vector<Triple> prefix = prefixes.back();
    prefix.insert(prefix.end(), batch.begin(), batch.end());
    prefixes.push_back(std::move(prefix));
    const uint64_t epoch = writer.epoch();
    ASSERT_EQ(epoch, prefixes.size() - 1);
    const uint64_t batches_at_publish = reader_batches.load();
    ASSERT_TRUE(reader_recorded_epoch(epoch))
        << "reader made no progress after epoch " << epoch << " published";
    // Scoring really ran concurrently with the churn, not once at the
    // end: batches completed after this specific publish.
    EXPECT_GE(reader_batches.load(), batches_at_publish);
  }
  done.store(true, std::memory_order_release);
  reader.join();

  // Every stable-epoch batch matches the static oracle for its epoch:
  // BuildGraph over the exact triple prefix, scored offline.
  core::DekgIlpPredictor predictor(&model);
  ASSERT_EQ(recorded.size(), prefixes.size());  // all epochs covered
  for (const auto& [epoch, scores] : recorded) {
    ASSERT_LT(epoch, prefixes.size());
    const KnowledgeGraph oracle =
        BuildGraph(dataset.inference_graph().num_entities(),
                   dataset.num_relations(), prefixes[epoch]);
    const std::vector<double> offline =
        predictor.ScoreTriples(oracle, triples);
    ASSERT_EQ(scores.size(), offline.size());
    for (size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(scores[i], offline[i]) << "epoch " << epoch << " triple "
                                       << i;
    }
  }

  // Final convergence: with every chunk ingested, a quiescent batch
  // equals the offline scores on the full inference graph.
  const std::vector<double> final_scores = engine.ScoreBatch(ItemsFor(triples));
  const std::vector<double> final_offline =
      predictor.ScoreTriples(dataset.inference_graph(), triples);
  for (size_t i = 0; i < final_offline.size(); ++i) {
    EXPECT_EQ(final_scores[i], final_offline[i]) << "final triple " << i;
  }
}

}  // namespace
}  // namespace dekg::serve
