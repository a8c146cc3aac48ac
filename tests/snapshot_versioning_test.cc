// Versioned-snapshot tests for the append-only graph store and the
// persistent CLRM row tables (DESIGN.md §14).
//
// A published snapshot is a view (store, entity count, edge count) plus
// row-table versions that share chunks with later epochs. The property
// under test: a snapshot pinned at epoch e keeps answering exactly as
// BuildGraph over epoch e's triple prefix — edges, adjacency, membership,
// CLRM rows, extraction — however far the writer has appended since,
// including past every chunk, block and index boundary of the store, and
// while reader threads scan it concurrently with the writer. Two writers
// built from one base graph must never see each other's appends.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dekg_ilp.h"
#include "serve/snapshot.h"

namespace dekg::serve {
namespace {

constexpr int32_t kRelations = 6;
constexpr int32_t kBaseEntities = 900;
constexpr int32_t kBaseEdges = 2000;
constexpr int32_t kHubs = 4;  // entities 0..3 gather edges every epoch

core::DekgIlpConfig SmallModelConfig() {
  core::DekgIlpConfig config;
  config.num_relations = kRelations;
  config.dim = 8;
  return config;
}

Triple RandomTriple(Rng* rng, int32_t num_entities) {
  return Triple{static_cast<EntityId>(rng->UniformInt(0, num_entities - 1)),
                static_cast<RelationId>(rng->UniformInt(0, kRelations - 1)),
                static_cast<EntityId>(rng->UniformInt(0, num_entities - 1))};
}

// The base triples and the ingest batches of one schedule. Over its 14
// epochs the graph grows from 900 to 4150 entities (adjacency and row
// slot chunks end at 1024 and 3072) and from 2000 to ~13.3k edges (the
// writer's edge array, sized for 8096, moves once; the triple index
// rehashes twice); every hub's list outgrows its block about ten times.
// Batches mix new entities (with isolated gaps), hub edges, duplicates of
// earlier and same-batch triples, and self-loops; one batch is a single
// triple.
struct Schedule {
  std::vector<Triple> base;
  std::vector<std::vector<Triple>> batches;
};

Schedule MakeSchedule(uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  for (int32_t i = 0; i < kBaseEdges; ++i) {
    s.base.push_back(RandomTriple(&rng, kBaseEntities));
  }
  std::vector<Triple> all = s.base;
  int32_t entities = kBaseEntities;
  for (int epoch = 0; epoch < 14; ++epoch) {
    std::vector<Triple> batch;
    if (epoch == 5) {
      batch.push_back(RandomTriple(&rng, entities));
    } else {
      // New ids up to 250 past the space, every other one left isolated.
      const int32_t grown = entities + 250;
      for (EntityId e = entities + 1; e < grown; e += 2) {
        batch.push_back(Triple{
            e, static_cast<RelationId>(rng.UniformInt(0, kRelations - 1)),
            static_cast<EntityId>(rng.UniformInt(0, entities - 1))});
      }
      batch.push_back(Triple{grown - 1, 0, grown - 1});  // self-loop
      entities = grown;
      for (int32_t i = 0; i < 400; ++i) {
        const Triple t = RandomTriple(&rng, entities);
        batch.push_back(Triple{static_cast<EntityId>(i % kHubs), t.rel,
                               t.tail});
      }
      for (int32_t i = 0; i < 300; ++i) {
        batch.push_back(RandomTriple(&rng, entities));
      }
      for (int32_t i = 0; i < 40; ++i) {  // re-ingested earlier triples
        batch.push_back(all[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))]);
      }
      batch.push_back(batch.front());  // same-batch duplicate
    }
    all.insert(all.end(), batch.begin(), batch.end());
    s.batches.push_back(std::move(batch));
  }
  return s;
}

// Extraction probes: hub pairs, a hub with the newest entity, and random
// pairs. Only those inside an epoch's entity space are used there.
std::vector<Triple> MakeProbes(uint64_t seed, int32_t max_entities) {
  Rng rng(seed);
  std::vector<Triple> probes = {{0, 1, 1}, {2, 0, 3}, {0, 2, 905}};
  for (int i = 0; i < 9; ++i) probes.push_back(RandomTriple(&rng, max_entities));
  return probes;
}

bool SameSubgraph(const Subgraph& a, const Subgraph& b) {
  if (a.nodes.size() != b.nodes.size() || a.edges.size() != b.edges.size()) {
    return false;
  }
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].entity != b.nodes[i].entity ||
        a.nodes[i].dist_head != b.nodes[i].dist_head ||
        a.nodes[i].dist_tail != b.nodes[i].dist_tail) {
      return false;
    }
  }
  for (size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].src != b.edges[i].src || a.edges[i].rel != b.edges[i].rel ||
        a.edges[i].dst != b.edges[i].dst) {
      return false;
    }
  }
  return true;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.Data(), b.Data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Every query of `view` against `oracle` (BuildGraph over the same
// prefix). `later` holds triples appended after the prefix.
void ExpectSameGraph(const KnowledgeGraph& view, const KnowledgeGraph& oracle,
                     const std::vector<Triple>& later,
                     const std::string& where) {
  ASSERT_EQ(view.num_entities(), oracle.num_entities()) << where;
  ASSERT_EQ(view.num_triples(), oracle.num_triples()) << where;
  for (int64_t id = 0; id < oracle.num_triples(); ++id) {
    const Edge& a = view.edge(id);
    const Edge& b = oracle.edge(id);
    ASSERT_TRUE(a.src == b.src && a.rel == b.rel && a.dst == b.dst)
        << where << " edge " << id;
  }
  for (EntityId v = 0; v < oracle.num_entities(); ++v) {
    const std::span<const int32_t> a = view.IncidentEdges(v);
    const std::span<const int32_t> b = oracle.IncidentEdges(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << where << " entity " << v;
  }
  for (const Triple& t : oracle.Triples()) {
    ASSERT_TRUE(view.Contains(t)) << where;
  }
  for (const Triple& t : later) {
    const bool in_space =
        t.head < oracle.num_entities() && t.tail < oracle.num_entities();
    const bool expected = in_space && oracle.Contains(t);
    ASSERT_EQ(view.Contains(t), expected) << where;
  }
}

// What every pinned epoch must keep answering: its oracle graph, fresh
// CLRM rows over it, and the probes' extractions from it.
struct EpochOracle {
  KnowledgeGraph graph;
  std::vector<Tensor> rows;
  std::vector<Triple> probes;
  std::vector<Subgraph> subgraphs;
};

std::vector<EpochOracle> BuildOracles(core::DekgIlpModel* model,
                                      const Schedule& s,
                                      const std::vector<Triple>& probes) {
  std::vector<EpochOracle> oracles;
  std::vector<Triple> prefix = s.base;
  int32_t entities = kBaseEntities;
  for (size_t e = 0; e <= s.batches.size(); ++e) {
    if (e > 0) {
      for (const Triple& t : s.batches[e - 1]) {
        entities = std::max({entities, t.head + 1, t.tail + 1});
      }
      prefix.insert(prefix.end(), s.batches[e - 1].begin(),
                    s.batches[e - 1].end());
    }
    EpochOracle o{BuildGraph(entities, kRelations, prefix), {}, {}, {}};
    for (EntityId v = 0; v < entities; ++v) {
      o.rows.push_back(
          model->clrm()->EmbedEntity(o.graph.RelationComponentTable(v)).value());
    }
    for (const Triple& t : probes) {
      if (t.head >= entities || t.tail >= entities) continue;
      o.probes.push_back(t);
      o.subgraphs.push_back(model->gsm()->Extract(o.graph, t));
    }
    oracles.push_back(std::move(o));
  }
  return oracles;
}

void ExpectSnapshotMatches(core::DekgIlpModel* model, const GraphSnapshot& snap,
                           const EpochOracle& oracle,
                           const std::vector<Triple>& later,
                           const std::string& where) {
  ExpectSameGraph(snap.graph, oracle.graph, later, where);
  ASSERT_EQ(snap.entity_emb.size(), oracle.rows.size()) << where;
  for (size_t v = 0; v < oracle.rows.size(); ++v) {
    ASSERT_TRUE(SameBits(*snap.entity_emb[v], oracle.rows[v]))
        << where << " row " << v;
  }
  for (size_t k = 0; k < oracle.probes.size(); ++k) {
    EXPECT_TRUE(SameSubgraph(model->gsm()->Extract(snap.graph, oracle.probes[k]),
                             oracle.subgraphs[k]))
        << where << " probe " << k;
  }
}

// Ingests the whole schedule, pinning every epoch's snapshot, then checks
// each pinned snapshot against its oracle. With `readers` > 0, that many
// threads extract from (and query) the already-pinned snapshots the whole
// time the writer ingests, and each publish waits until they have made
// two more passes — so old views are read while the writer appends past
// them.
void RunSchedule(int readers) {
  core::DekgIlpModel model(SmallModelConfig(), /*seed=*/5);
  const Schedule s = MakeSchedule(/*seed=*/41);
  const std::vector<Triple> probes = MakeProbes(/*seed=*/43, kBaseEntities);
  const std::vector<EpochOracle> oracles = BuildOracles(&model, s, probes);

  SnapshotWriter writer(&model, BuildGraph(kBaseEntities, kRelations, s.base),
                        LiveGraphConfig{});
  std::vector<std::shared_ptr<const GraphSnapshot>> pinned(oracles.size());
  pinned[0] = writer.Current();
  std::atomic<size_t> published{1};
  std::atomic<uint64_t> passes{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      SubgraphWorkspace workspace;
      while (!done.load(std::memory_order_acquire)) {
        const size_t n = published.load(std::memory_order_acquire);
        for (size_t e = 0; e < n; ++e) {
          const GraphSnapshot& snap = *pinned[e];
          const EpochOracle& o = oracles[e];
          for (size_t k = 0; k < o.probes.size(); ++k) {
            if (!SameSubgraph(
                    model.gsm()->Extract(snap.graph, o.probes[k], &workspace),
                    o.subgraphs[k])) {
              mismatches.fetch_add(1);
            }
          }
          for (EntityId hub = 0; hub < kHubs; ++hub) {
            const std::span<const int32_t> a = snap.graph.IncidentEdges(hub);
            const std::span<const int32_t> b = o.graph.IncidentEdges(hub);
            if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
              mismatches.fetch_add(1);
            }
          }
          const EntityId row = static_cast<EntityId>((e * 131 + r) %
                                                     o.rows.size());
          if (!SameBits(*snap.entity_emb[static_cast<size_t>(row)],
                        o.rows[static_cast<size_t>(row)])) {
            mismatches.fetch_add(1);
          }
          if (snap.graph.Contains(s.batches.back().back()) !=
              (e == s.batches.size())) {
            mismatches.fetch_add(1);
          }
        }
        passes.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  for (size_t b = 0; b < s.batches.size(); ++b) {
    IngestReport report;
    std::string error;
    ASSERT_EQ(writer.Ingest(s.batches[b], &report, &error), Status::kOk)
        << error;
    pinned[b + 1] = writer.Current();
    ASSERT_EQ(pinned[b + 1]->epoch, b + 1);
    published.store(b + 2, std::memory_order_release);
    if (readers == 0) continue;
    const uint64_t target = passes.load() + 2;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (passes.load() < target) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "readers made no progress after epoch " << b + 1;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // The writer has appended past every pinned epoch but the last.
  std::vector<Triple> all = s.base;
  for (const std::vector<Triple>& batch : s.batches) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  // Past the writer's first edge array (2 x base + 4096) and the second
  // slot chunk.
  ASSERT_GT(all.size(), size_t{2 * kBaseEdges + 4096});
  ASSERT_GT(oracles.back().graph.num_entities(), 3072);
  for (size_t e = 0; e < pinned.size(); ++e) {
    const std::vector<Triple> later(
        all.begin() + oracles[e].graph.num_triples(), all.end());
    ExpectSnapshotMatches(&model, *pinned[e], oracles[e], later,
                          "epoch " + std::to_string(e));
  }
}

TEST(SnapshotVersioningTest, PinnedSnapshotsStayExactAcrossEveryBoundary) {
  RunSchedule(/*readers=*/0);
}

TEST(SnapshotVersioningTest, PinnedSnapshotsStayExactUnderConcurrentReaders) {
  RunSchedule(/*readers=*/3);
}

TEST(SnapshotVersioningTest, WritersFromOneBaseNeverShareAppends) {
  // The shape of a traced perfbench replay: a Router and a SnapshotWriter
  // both built from the same base graph, each ingesting on its own.
  core::DekgIlpModel model(SmallModelConfig(), /*seed=*/5);
  const Schedule s = MakeSchedule(/*seed=*/47);
  const KnowledgeGraph base = BuildGraph(kBaseEntities, kRelations, s.base);
  SnapshotWriter first(&model, base, LiveGraphConfig{});
  SnapshotWriter second(&model, base, LiveGraphConfig{});

  // Disjoint batches: `second` gets triples under relation 5 only, which
  // `first` never sees.
  std::vector<Triple> a = s.batches[0];
  std::vector<Triple> b;
  for (EntityId e = 0; e < 300; ++e) b.push_back(Triple{e, 5, e + 1000});
  std::erase_if(a, [](const Triple& t) { return t.rel == 5; });
  IngestReport report;
  std::string error;
  ASSERT_EQ(first.Ingest(a, &report, &error), Status::kOk) << error;
  ASSERT_EQ(second.Ingest(b, &report, &error), Status::kOk) << error;
  const KnowledgeGraph first_view = first.Current()->graph;  // value copy
  ASSERT_EQ(first.Ingest(s.batches[1], &report, &error), Status::kOk) << error;

  auto plus = [&](const std::vector<Triple>& batch) {
    std::vector<Triple> triples = s.base;
    triples.insert(triples.end(), batch.begin(), batch.end());
    int32_t entities = kBaseEntities;
    for (const Triple& t : triples) {
      entities = std::max({entities, t.head + 1, t.tail + 1});
    }
    return BuildGraph(entities, kRelations, triples);
  };
  ExpectSameGraph(base, BuildGraph(kBaseEntities, kRelations, s.base), a,
                  "base");
  ExpectSameGraph(base, BuildGraph(kBaseEntities, kRelations, s.base), b,
                  "base");
  ExpectSameGraph(first_view, plus(a), b, "first before its second ingest");
  ExpectSameGraph(first_view, plus(a), s.batches[1],
                  "first before its second ingest");
  ExpectSameGraph(second.Current()->graph, plus(b), a, "second");
  std::vector<Triple> a_then = a;
  a_then.insert(a_then.end(), s.batches[1].begin(), s.batches[1].end());
  ExpectSameGraph(first.Current()->graph, plus(a_then), b, "first");
}

}  // namespace
}  // namespace dekg::serve
