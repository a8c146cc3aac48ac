// Bitwise-identity gate of the one inference path (DESIGN.md §11):
// packed (block-diagonal) GSM scores must equal the sequential
// per-subgraph scores bit for bit for every batch size, thread count, and
// encoder configuration — including degenerate subgraphs (zero edges,
// minimum 2-node graphs) — and every model variant, scored offline by
// DekgIlpPredictor or online by a Router, must equal the taped
// DekgIlpModel::ScoreLink(training=false) bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "baselines/grail.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "core/gsm.h"
#include "datagen/synthetic_kg.h"
#include "gnn/packed_batch.h"
#include "gnn/rgcn.h"
#include "graph/subgraph.h"
#include "graph/subgraph_cache.h"
#include "serve/router.h"

namespace dekg::core {
namespace {

GsmConfig SmallConfig() {
  GsmConfig config;
  config.num_relations = 4;
  config.dim = 8;
  config.num_hops = 2;
  config.num_layers = 2;
  config.edge_dropout = 0.0f;
  return config;
}

// 16-entity ring with chords plus two isolated entities (16, 17): triples
// touching the isolated pair extract degenerate two-node, zero-edge
// subgraphs.
KnowledgeGraph BatchGraph() {
  KnowledgeGraph g(18, 4);
  for (int i = 0; i < 16; ++i) {
    g.AddTriple({i, i % 4, (i + 1) % 16});
    if (i % 3 == 0) g.AddTriple({i, (i + 1) % 4, (i + 5) % 16});
  }
  g.Build();
  return g;
}

// Deterministic candidate list mixing connected pairs with degenerate
// (isolated-endpoint) ones.
std::vector<Triple> CandidateTriples(size_t count) {
  std::vector<Triple> triples;
  size_t i = 0;
  while (triples.size() < count) {
    Triple t;
    if (i % 9 == 7) {
      t = {16, static_cast<RelationId>(i % 4), 17};  // zero-edge subgraph
    } else {
      const EntityId head = static_cast<EntityId>((i * 5) % 16);
      const EntityId tail = static_cast<EntityId>((i * 7 + 3) % 16);
      t = {head, static_cast<RelationId>(i % 4), tail};
      if (head == tail) {
        ++i;
        continue;
      }
    }
    triples.push_back(t);
    ++i;
  }
  return triples;
}

std::vector<const Subgraph*> Pointers(const std::vector<Subgraph>& subs) {
  std::vector<const Subgraph*> ptrs;
  for (const Subgraph& s : subs) ptrs.push_back(&s);
  return ptrs;
}

TEST(SegmentOpsTest, SegmentMeanRowsMatchesMeanOverRowsBitwise) {
  Rng rng(11);
  Tensor m = Tensor::Uniform(Shape{7, 5}, -2.0f, 2.0f, &rng);
  const std::vector<int64_t> offsets = {0, 1, 3, 7};
  // The tensor kernel RgcnEncoder::ForwardBatch runs for the readout.
  const Tensor packed = dekg::SegmentMeanRows(m, offsets);
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    const int64_t lo = offsets[s];
    const int64_t hi = offsets[s + 1];
    Tensor slice(Shape{hi - lo, 5});
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < 5; ++j) slice.At(i - lo, j) = m.At(i, j);
    }
    ag::Var mean = ag::MeanOverRows(ag::Var::Constant(std::move(slice)));
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(packed.At(static_cast<int64_t>(s), j),
                mean.value().Data()[j])
          << "segment " << s << " col " << j;
    }
  }
}

TEST(PackedBatchTest, LayoutPreservesPerGraphOrder) {
  KnowledgeGraph g = BatchGraph();
  Rng rng(1);
  Gsm gsm(SmallConfig(), &rng);
  std::vector<Triple> triples = CandidateTriples(5);
  std::vector<Subgraph> subs = gsm.ExtractBatch(g, triples);
  std::vector<RelationId> rels;
  for (const Triple& t : triples) rels.push_back(t.rel);

  gnn::PackedSubgraphBatch batch =
      gnn::PackedSubgraphBatch::Pack(Pointers(subs), rels, 4);
  ASSERT_EQ(batch.size(), 5);
  EXPECT_EQ(batch.node_offsets.front(), 0);
  int64_t nodes = 0;
  int64_t msgs = 0;
  for (size_t i = 0; i < subs.size(); ++i) {
    nodes += static_cast<int64_t>(subs[i].nodes.size());
    msgs += static_cast<int64_t>(subs[i].edges.size()) * 2;
    EXPECT_EQ(batch.node_offsets[i + 1], nodes);
    EXPECT_EQ(batch.msg_offsets[i + 1], msgs);
    EXPECT_EQ(batch.head_row(static_cast<int64_t>(i)),
              batch.node_offsets[i]);
    EXPECT_EQ(batch.tail_row(static_cast<int64_t>(i)),
              batch.node_offsets[i] + 1);
  }
  EXPECT_EQ(batch.total_nodes(), nodes);
  EXPECT_EQ(batch.total_messages(), msgs);
  // Every message stays inside its graph's node segment.
  for (size_t gi = 0; gi < subs.size(); ++gi) {
    for (int64_t e = batch.msg_offsets[gi]; e < batch.msg_offsets[gi + 1];
         ++e) {
      EXPECT_GE(batch.src_ids[static_cast<size_t>(e)],
                batch.node_offsets[gi]);
      EXPECT_LT(batch.src_ids[static_cast<size_t>(e)],
                batch.node_offsets[gi + 1]);
      EXPECT_GE(batch.dst_ids[static_cast<size_t>(e)],
                batch.node_offsets[gi]);
      EXPECT_LT(batch.dst_ids[static_cast<size_t>(e)],
                batch.node_offsets[gi + 1]);
    }
  }
}

TEST(PackedBatchTest, ForwardBatchMatchesForwardBitwise) {
  KnowledgeGraph g = BatchGraph();
  for (bool jk : {false, true}) {
    for (bool attention : {false, true}) {
      gnn::RgcnConfig config;
      config.num_relations = 4;
      config.hidden_dim = 8;
      config.edge_dropout = 0.0f;
      config.jk_concat = jk;
      config.edge_attention = attention;
      Rng rng(3);
      gnn::RgcnEncoder encoder(config, &rng);

      SubgraphConfig sc;
      std::vector<Triple> triples = CandidateTriples(6);
      std::vector<Subgraph> subs;
      std::vector<RelationId> rels;
      for (const Triple& t : triples) {
        subs.push_back(ExtractSubgraph(g, t.head, t.tail, t.rel, sc));
        rels.push_back(t.rel);
      }
      gnn::RgcnBatchOutput packed = encoder.ForwardBatch(
          gnn::PackedSubgraphBatch::Pack(Pointers(subs), rels, 4));
      const int64_t out_dim = encoder.output_dim();
      for (size_t i = 0; i < subs.size(); ++i) {
        Rng unused(0);
        gnn::RgcnOutput seq =
            encoder.Forward(subs[i], rels[i], /*training=*/false, &unused);
        for (int64_t j = 0; j < out_dim; ++j) {
          const int64_t row = static_cast<int64_t>(i);
          EXPECT_EQ(packed.graph_reprs.At(row, j),
                    seq.graph_repr.value().Data()[j])
              << "jk=" << jk << " att=" << attention << " graph " << i;
          EXPECT_EQ(packed.head_reprs.At(row, j),
                    seq.head_repr.value().At(0, j));
          EXPECT_EQ(packed.tail_reprs.At(row, j),
                    seq.tail_repr.value().At(0, j));
        }
      }
    }
  }
}

TEST(GsmBatchTest, PackedScoresBitIdenticalAcrossSweep) {
  KnowledgeGraph g = BatchGraph();
  for (bool jk : {false, true}) {
    for (bool attention : {false, true}) {
      GsmConfig config = SmallConfig();
      config.jk_concat = jk;
      config.edge_attention = attention;
      Rng rng(7);
      Gsm gsm(config, &rng);
      for (int batch_size : {1, 2, 7, 64}) {
        std::vector<Triple> triples =
            CandidateTriples(static_cast<size_t>(batch_size));
        std::vector<Subgraph> subs = gsm.ExtractBatch(g, triples);
        std::vector<RelationId> rels;
        for (const Triple& t : triples) rels.push_back(t.rel);

        // Sequential reference.
        std::vector<float> expected;
        for (size_t i = 0; i < subs.size(); ++i) {
          Rng unused(0);
          expected.push_back(
              gsm.ScoreSubgraph(subs[i], rels[i], /*training=*/false,
                                &unused)
                  .value()
                  .Data()[0]);
        }

        for (int threads : {1, 4}) {
          SetDefaultThreadCount(threads);
          std::vector<float> packed =
              gsm.ScoreSubgraphsPacked(Pointers(subs), rels);
          SetDefaultThreadCount(0);
          ASSERT_EQ(packed.size(), expected.size());
          for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(packed[i], expected[i])
                << "jk=" << jk << " att=" << attention << " batch "
                << batch_size << " threads " << threads << " item " << i;
          }
        }
      }
    }
  }
}

TEST(GsmBatchTest, DegenerateSubgraphsScoreIdentically) {
  // A batch of only degenerate graphs: the zero-edge pair and assorted
  // minimum two-node extractions.
  KnowledgeGraph g = BatchGraph();
  Rng rng(9);
  Gsm gsm(SmallConfig(), &rng);
  std::vector<Triple> triples = {{16, 0, 17}, {16, 3, 17}, {17, 1, 16}};
  std::vector<Subgraph> subs = gsm.ExtractBatch(g, triples);
  for (const Subgraph& s : subs) {
    ASSERT_EQ(s.nodes.size(), 2u);
    ASSERT_TRUE(s.edges.empty());
  }
  std::vector<RelationId> rels = {0, 3, 1};
  std::vector<float> packed = gsm.ScoreSubgraphsPacked(Pointers(subs), rels);
  for (size_t i = 0; i < subs.size(); ++i) {
    Rng unused(0);
    const float expected =
        gsm.ScoreSubgraph(subs[i], rels[i], /*training=*/false, &unused)
            .value()
            .Data()[0];
    EXPECT_EQ(packed[i], expected) << "degenerate item " << i;
  }
}

TEST(GroupForPackingTest, GroupsPartitionBySizeAndRespectCap) {
  // Dummy subgraphs with controlled sizes (grouping reads sizes only).
  std::vector<Subgraph> subs(10);
  for (size_t i = 0; i < subs.size(); ++i) {
    subs[i].nodes.resize(i % 3 == 0 ? 4 : 7);
    subs[i].edges.resize(i % 2);
  }
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 10; ++i) indices.push_back(i);

  GsmBatchOptions options;
  options.max_batch = 3;
  const auto groups = GroupForPacking(Pointers(subs), indices, options);
  std::vector<bool> seen(10, false);
  for (const auto& group : groups) {
    EXPECT_LE(group.size(), 3u);
    EXPECT_FALSE(group.empty());
    for (int64_t i : group) {
      EXPECT_FALSE(seen[static_cast<size_t>(i)]) << "duplicate index";
      seen[static_cast<size_t>(i)] = true;
      EXPECT_EQ(subs[static_cast<size_t>(i)].nodes.size(),
                subs[static_cast<size_t>(group[0])].nodes.size());
      EXPECT_EQ(subs[static_cast<size_t>(i)].edges.size(),
                subs[static_cast<size_t>(group[0])].edges.size());
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

DekgDataset VariantDataset() {
  datagen::SchemaConfig schema;
  schema.num_types = 5;
  schema.num_relations = 14;
  schema.num_entities = 160;
  datagen::SplitConfig split;
  split.max_test_links = 40;
  return datagen::MakeDekgDataset("gsm-batch-variants", schema, split,
                                  /*seed=*/21);
}

struct Variant {
  std::string name;
  DekgIlpConfig config;
};

// DEKG-ILP, its -R / CLRM-only / -N ablations, and the GraIL baseline.
std::vector<Variant> Variants(int32_t num_relations) {
  DekgIlpConfig full;
  full.num_relations = num_relations;
  full.dim = 8;
  DekgIlpConfig no_clrm = full;
  no_clrm.use_clrm = false;
  DekgIlpConfig clrm_only = full;
  clrm_only.use_gsm = false;
  DekgIlpConfig grail_labels = full;
  grail_labels.labeling = NodeLabeling::kGrail;
  return {{"DEKG-ILP", full},
          {"-R", no_clrm},
          {"CLRM only", clrm_only},
          {"-N", grail_labels},
          {"GraIL", baselines::GrailConfig(num_relations, /*dim=*/8)}};
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " triple " << i;
  }
}

TEST(InferencePathTest, EveryVariantAndScorerMatchesTapedScoreLink) {
  const DekgDataset dataset = VariantDataset();
  const KnowledgeGraph& graph = dataset.inference_graph();
  std::vector<Triple> triples;
  std::vector<serve::ScoreItem> items;
  for (const LabeledLink& link : dataset.test_links()) {
    items.push_back({link.triple, MixSeed(123, triples.size())});
    triples.push_back(link.triple);
    if (triples.size() >= 24) break;
  }
  ASSERT_GE(triples.size(), 16u);

  for (const Variant& variant : Variants(dataset.num_relations())) {
    DekgIlpModel model(variant.config, /*seed=*/3);
    std::vector<double> reference;
    for (const Triple& t : triples) {
      Rng unused(0);
      reference.push_back(static_cast<double>(
          model.ScoreLink(graph, t, /*training=*/false, &unused)
              .value()
              .Data()[0]));
    }
    // Half-filled cache: the even triples hit, the odd ones extract.
    SubgraphCache cache;
    if (model.gsm() != nullptr) {
      for (size_t i = 0; i < triples.size(); i += 2) {
        if (cache.Find(triples[i]) != nullptr) continue;  // a repeated link
        cache.Admit(triples[i], model.gsm()->Extract(graph, triples[i]), {});
      }
    }

    for (int threads : {1, 4}) {
      SetDefaultThreadCount(threads);
      const std::string at =
          variant.name + " threads " + std::to_string(threads);
      DekgIlpPredictor predictor(&model);
      ExpectBitwiseEqual(predictor.ScoreTriples(graph, triples), reference,
                         at + " ScoreTriples");
      ExpectBitwiseEqual(predictor.ScoreTriplesCached(graph, triples, &cache),
                         reference, at + " ScoreTriplesCached");
      for (int32_t shards : {1, 3}) {
        serve::RouterConfig config;
        config.num_shards = shards;
        config.engine.score_memo_capacity = 0;  // the warm pass hits the cache
        serve::Router router(&model, graph, config);
        const std::string where = at + " shards " + std::to_string(shards);
        ExpectBitwiseEqual(router.ScoreBatch(items), reference, where + " cold");
        ExpectBitwiseEqual(router.ScoreBatch(items), reference, where + " warm");
      }
      SetDefaultThreadCount(0);
    }
  }
}

TEST(InferencePathTest, JkConcatGsmMatchesTapedScoresAtEveryGroupCap) {
  // DekgIlpConfig has no readout switch, so the jk_concat GSM goes
  // through ScoreInference directly, next to a CLRM over fused rows.
  const DekgDataset dataset = VariantDataset();
  const KnowledgeGraph& graph = dataset.inference_graph();
  Rng init(5);
  GsmConfig gsm_config;
  gsm_config.num_relations = dataset.num_relations();
  gsm_config.dim = 8;
  gsm_config.jk_concat = true;
  Gsm gsm(gsm_config, &init);
  ClrmConfig clrm_config;
  clrm_config.num_relations = dataset.num_relations();
  clrm_config.dim = 8;
  Clrm clrm(clrm_config, &init);

  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    triples.push_back(link.triple);
    if (triples.size() >= 24) break;
  }
  const std::vector<Subgraph> subs = gsm.ExtractBatch(graph, triples);
  std::vector<Tensor> fused(static_cast<size_t>(graph.num_entities()));
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    fused[static_cast<size_t>(e)] =
        clrm.EmbedEntity(graph.RelationComponentTable(e)).value();
  }
  const auto rows = [&](EntityId e) -> const Tensor& {
    return fused[static_cast<size_t>(e)];
  };

  std::vector<double> reference;
  for (size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    Rng unused(0);
    const ag::Var sem =
        clrm.ScoreTriple(graph.RelationComponentTable(t.head), t.rel,
                         graph.RelationComponentTable(t.tail));
    const ag::Var tpo =
        gsm.ScoreSubgraph(subs[i], t.rel, /*training=*/false, &unused);
    reference.push_back(
        static_cast<double>(ag::Add(sem, tpo).value().Data()[0]));
  }

  for (int threads : {1, 4}) {
    SetDefaultThreadCount(threads);
    for (int32_t cap : {1, 3, 8, 64}) {
      GsmBatchOptions options;
      options.max_batch = cap;
      ExpectBitwiseEqual(
          ScoreInference(&clrm, &gsm, triples, Pointers(subs), rows,
                         options),
          reference,
          "threads " + std::to_string(threads) + " cap " + std::to_string(cap));
    }
    SetDefaultThreadCount(0);
  }
}

}  // namespace
}  // namespace dekg::core
