// RgcnEncoder::LayerOp, the one autograd node per R-GCN layer, against
// the per-op autograd chain it replaced. The chain is kept here as the
// reference (ComposedLayer). The op's output, every parameter gradient and
// the layer input's gradient must be bit-equal to the chain's across
// jk_concat x edge attention x num_bases {1, 4} x edge dropout, with two
// subgraphs on one tape so shared parameters (att.rel, att.target_rel)
// collect several contributions, plus a zero-message subgraph and a layer
// whose input needs no gradient.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "gnn/rgcn.h"

namespace dekg::gnn {
namespace {

const ag::Var& Param(const RgcnEncoder& encoder, const std::string& name) {
  for (const nn::Parameter& p : encoder.parameters()) {
    if (p.name == name) return p.var;
  }
  DEKG_FATAL() << "no parameter " << name;
  return encoder.parameters().front().var;  // unreachable
}

// The per-op chain of layer l: the basis-decomposed relational transform
// msg_e = sum_b c[rel_e, b] * (h_src_e @ B_b), gated by
// sigmoid(w . [h_src, h_dst, rel, target_rel] + a), mean-aggregated at the
// destination, plus the self transform and bias, through ReLU.
ag::Var ComposedLayer(const RgcnEncoder& encoder, size_t l, const ag::Var& h,
                      const RgcnMessages& msgs) {
  const RgcnConfig& config = encoder.config();
  const std::string prefix = "layer" + std::to_string(l);
  const int64_t num_nodes = h.value().dim(0);
  ag::Var aggregated;
  if (!msgs.src_ids.empty()) {
    ag::Var msg;
    ag::Var per_edge_coeff =
        ag::GatherRows(Param(encoder, prefix + ".coeff"), msgs.rel_ids);
    for (int32_t b = 0; b < config.num_bases; ++b) {
      ag::Var transformed = ag::MatMul(
          h, Param(encoder, prefix + ".basis" + std::to_string(b)));
      ag::Var gathered = ag::GatherRows(transformed, msgs.src_ids);
      Tensor selector = Tensor::Zeros(Shape{config.num_bases, 1});
      selector.At(b, 0) = 1.0f;
      ag::Var coeff_b =
          ag::MatMul(per_edge_coeff, ag::Var::Constant(std::move(selector)));
      ag::Var scaled = ag::ScaleRows(gathered, coeff_b);
      msg = msg.defined() ? ag::Add(msg, scaled) : scaled;
    }
    if (config.edge_attention) {
      const std::string att = "att.layer" + std::to_string(l);
      ag::Var att_in = ag::Concat(
          {ag::GatherRows(h, msgs.src_ids), ag::GatherRows(h, msgs.dst_ids),
           ag::GatherRows(Param(encoder, "att.rel"), msgs.rel_ids),
           ag::GatherRows(Param(encoder, "att.target_rel"), msgs.target_ids)},
          /*axis=*/1);
      ag::Var gate = ag::Sigmoid(
          ag::Add(ag::MatMul(att_in, Param(encoder, att + ".weight")),
                  Param(encoder, att + ".bias")));
      msg = ag::ScaleRows(msg, gate);
    }
    aggregated = ag::ScatterSumRows(msg, msgs.dst_ids, num_nodes);
    aggregated =
        ag::ScaleRows(aggregated, ag::Var::Constant(msgs.inv_indegree));
  } else {
    aggregated = ag::Var::Constant(
        Tensor::Zeros(Shape{num_nodes, config.hidden_dim}));
  }
  ag::Var self = ag::MatMul(h, Param(encoder, prefix + ".self"));
  return ag::Relu(
      ag::Add(ag::Add(self, aggregated), Param(encoder, prefix + ".bias")));
}

// Encoder readout over the composed chain, with the message list drawn
// from an Rng seeded like the one handed to Forward.
RgcnOutput ComposedForward(const RgcnEncoder& encoder, const Subgraph& sub,
                           RelationId rel, bool training, uint64_t seed) {
  Rng rng(seed);
  const RgcnMessages msgs = encoder.BuildMessages(sub, rel, training, &rng);
  ag::Var h = ag::Var::Constant(encoder.NodeFeatures(sub));
  std::vector<ag::Var> layer_outputs;
  for (int32_t l = 0; l < encoder.config().num_layers; ++l) {
    h = ComposedLayer(encoder, static_cast<size_t>(l), h, msgs);
    layer_outputs.push_back(h);
  }
  ag::Var readout = encoder.config().jk_concat
                        ? ag::Concat(layer_outputs, /*axis=*/1)
                        : h;
  RgcnOutput out;
  out.node_states = readout;
  out.graph_repr = ag::MeanOverRows(readout);
  out.head_repr = ag::GatherRows(readout, {sub.head_local()});
  out.tail_repr = ag::GatherRows(readout, {sub.tail_local()});
  return out;
}

RgcnOutput FusedForward(const RgcnEncoder& encoder, const Subgraph& sub,
                        RelationId rel, bool training, uint64_t seed) {
  Rng rng(seed);
  return encoder.Forward(sub, rel, training, &rng);
}

// A GSM-like scalar over one encoding: the score head on (graph, head,
// tail) plus a weighted sum over every node state, so each readout path
// carries a distinct gradient.
ag::Var ScoreLike(const RgcnOutput& enc, const Tensor& score_w,
                  const Tensor& node_w) {
  const int64_t d = enc.graph_repr.value().dim(0);
  ag::Var features = ag::Concat(
      {ag::Reshape(enc.graph_repr, Shape{1, d}), enc.head_repr, enc.tail_repr},
      /*axis=*/1);
  ag::Var node_term = ag::SumAll(ag::Mul(
      ag::SliceRows(enc.node_states, 0, node_w.dim(0)),
      ag::Var::Constant(node_w)));
  return ag::Add(ag::SumAll(ag::MatMul(features, ag::Var::Constant(score_w))),
                 node_term);
}

Subgraph RandomSubgraph(int32_t num_nodes, int32_t num_edges,
                        int32_t num_relations, uint64_t seed) {
  Rng rng(seed);
  Subgraph sub;
  for (int32_t i = 0; i < num_nodes; ++i) {
    const int32_t dh = i == 0 ? 0 : static_cast<int32_t>(rng.UniformInt(-1, 2));
    const int32_t dt = i == 1 ? 0 : static_cast<int32_t>(rng.UniformInt(-1, 2));
    sub.nodes.push_back({i + 100, dh, dt});
  }
  for (int32_t e = 0; e < num_edges; ++e) {
    sub.edges.push_back(
        {static_cast<int32_t>(rng.UniformUint64(num_nodes)),
         static_cast<RelationId>(rng.UniformUint64(num_relations)),
         static_cast<int32_t>(rng.UniformUint64(num_nodes))});
  }
  return sub;
}

Tensor RandomTensor(Shape shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), -1.0f, 1.0f, &rng);
}

RgcnConfig Config(bool jk, bool attention, int32_t bases, float dropout) {
  RgcnConfig config;
  config.num_relations = 3;
  config.num_hops = 2;
  // 11 = one 8-wide lane block plus a scalar tail in every row kernel.
  config.hidden_dim = 11;
  config.num_layers = 3;
  config.num_bases = bases;
  config.edge_dropout = dropout;
  config.edge_attention = attention;
  config.attention_rel_dim = 5;
  config.jk_concat = jk;
  return config;
}

std::string Label(const RgcnConfig& c) {
  return "jk=" + std::to_string(c.jk_concat) +
         " att=" + std::to_string(c.edge_attention) +
         " bases=" + std::to_string(c.num_bases) +
         " dropout=" + std::to_string(c.edge_dropout);
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.Data(), b.Data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Every parameter slot: received a gradient on both sides or on neither,
// and bit-equal where it did.
void ExpectSinksBitEqual(const RgcnEncoder& encoder, const ag::GradSink& got,
                         const ag::GradSink& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t slot = 0; slot < got.size(); ++slot) {
    const std::string& name = encoder.parameters()[slot].name;
    ASSERT_EQ(got.has(slot), want.has(slot)) << label << " " << name;
    if (!got.has(slot)) continue;
    EXPECT_TRUE(BitEqual(got.grad(slot), want.grad(slot)))
        << label << " gradient of " << name;
  }
}

// Scores two subgraphs (a positive and a negative) on one tape and
// back-propagates their difference into a private sink.
struct PairRun {
  RgcnOutput pos;
  RgcnOutput neg;
  ag::GradSink sink;
};

template <typename ForwardFn>
PairRun RunPair(const RgcnEncoder& encoder, const Subgraph& pos_sub,
                const Subgraph& neg_sub, bool training, ForwardFn forward) {
  PairRun run;
  run.pos = forward(encoder, pos_sub, 1, training, 71);
  run.neg = forward(encoder, neg_sub, 2, training, 72);
  const int64_t d = encoder.output_dim();
  const Tensor score_w = RandomTensor({3 * d, 1}, 81);
  const Tensor node_w = RandomTensor({2, d}, 82);
  ag::Var loss = ag::Sub(ScoreLike(run.pos, score_w, node_w),
                         ScoreLike(run.neg, score_w, node_w));
  run.sink = encoder.MakeGradSink();
  loss.Backward(&run.sink);
  return run;
}

TEST(RgcnLayerOpTest, EncoderGradientsBitEqualComposedChainAcrossSweep) {
  const Subgraph pos = RandomSubgraph(14, 31, 3, 5);
  const Subgraph neg = RandomSubgraph(9, 17, 3, 6);
  for (bool jk : {false, true}) {
    for (bool attention : {false, true}) {
      for (int32_t bases : {1, 4}) {
        for (float dropout : {0.0f, 0.5f}) {
          const RgcnConfig config = Config(jk, attention, bases, dropout);
          const std::string label = Label(config);
          Rng init(17);
          RgcnEncoder encoder(config, &init);
          PairRun fused = RunPair(encoder, pos, neg, /*training=*/true,
                                  FusedForward);
          PairRun composed = RunPair(encoder, pos, neg, /*training=*/true,
                                     ComposedForward);
          EXPECT_TRUE(BitEqual(fused.pos.node_states.value(),
                               composed.pos.node_states.value()))
              << label;
          EXPECT_TRUE(BitEqual(fused.neg.node_states.value(),
                               composed.neg.node_states.value()))
              << label;
          ExpectSinksBitEqual(encoder, fused.sink, composed.sink, label);
        }
      }
    }
  }
}

TEST(RgcnLayerOpTest, DropoutDrawsMatchTheMessageList) {
  // Forward and BuildMessages consume the same Bernoulli stream, so the
  // reference above sees the op's message list; at 0.5 some pairs drop.
  const Subgraph sub = RandomSubgraph(14, 31, 3, 5);
  Rng init(17);
  RgcnEncoder encoder(Config(false, true, 4, 0.5f), &init);
  Rng rng(71);
  const RgcnMessages msgs = encoder.BuildMessages(sub, 1, true, &rng);
  EXPECT_LT(msgs.src_ids.size(), 2 * sub.edges.size());
  EXPECT_GT(msgs.src_ids.size(), 0u);
  EXPECT_EQ(msgs.target_ids.size(), msgs.src_ids.size());
}

// One layer on a leaf input: under jk the readout concatenates the input
// itself, so the input already holds the readout's gradient term when the
// layer's terms arrive, and their summation order shows in its bits.
void ExpectLayerBitEqual(const RgcnConfig& config, const Subgraph& sub,
                         bool input_requires_grad) {
  const std::string label =
      Label(config) + " input_grad=" + std::to_string(input_requires_grad);
  Rng init(23);
  RgcnEncoder encoder(config, &init);
  Rng rng(31);
  auto msgs = std::make_shared<const RgcnMessages>(
      encoder.BuildMessages(sub, 0, /*training=*/true, &rng));
  const int64_t n = static_cast<int64_t>(sub.nodes.size());
  const Tensor input = RandomTensor({n, config.hidden_dim}, 41);
  const Tensor readout_w =
      RandomTensor({n, config.jk_concat ? 2 * config.hidden_dim
                                        : config.hidden_dim},
                   43);
  struct Run {
    ag::Var h;
    ag::Var out;
    ag::GradSink sink;
  };
  const auto run = [&](bool fused) {
    Run r;
    r.h = ag::Var::Leaf(input.Clone(), input_requires_grad);
    r.out = fused ? encoder.LayerOp(1, r.h, msgs)
                  : ComposedLayer(encoder, 1, r.h, *msgs);
    ag::Var readout =
        config.jk_concat ? ag::Concat({r.h, r.out}, /*axis=*/1) : r.out;
    r.sink = encoder.MakeGradSink();
    ag::SumAll(ag::Mul(readout, ag::Var::Constant(readout_w)))
        .Backward(&r.sink);
    return r;
  };
  Run fused = run(true);
  Run composed = run(false);
  EXPECT_TRUE(BitEqual(fused.out.value(), composed.out.value())) << label;
  ExpectSinksBitEqual(encoder, fused.sink, composed.sink, label);
  ASSERT_EQ(fused.h.has_grad(), input_requires_grad) << label;
  ASSERT_EQ(composed.h.has_grad(), input_requires_grad) << label;
  if (input_requires_grad) {
    EXPECT_TRUE(BitEqual(fused.h.grad(), composed.h.grad()))
        << label << " gradient of the layer input";
  }
}

TEST(RgcnLayerOpTest, InputGradientBitEqualComposedChainAcrossSweep) {
  const Subgraph sub = RandomSubgraph(14, 31, 3, 5);
  for (bool jk : {false, true}) {
    for (bool attention : {false, true}) {
      for (int32_t bases : {1, 4}) {
        for (float dropout : {0.0f, 0.5f}) {
          ExpectLayerBitEqual(Config(jk, attention, bases, dropout), sub,
                              /*input_requires_grad=*/true);
        }
      }
    }
  }
}

TEST(RgcnLayerOpTest, InputWithoutGradient) {
  const Subgraph sub = RandomSubgraph(14, 31, 3, 5);
  for (bool attention : {false, true}) {
    ExpectLayerBitEqual(Config(true, attention, 4, 0.5f), sub,
                        /*input_requires_grad=*/false);
  }
}

TEST(RgcnLayerOpTest, ZeroMessageSubgraph) {
  // Head and tail only: no message, so only the self transforms and
  // biases receive gradients, on both sides.
  const Subgraph sub = RandomSubgraph(2, 0, 3, 9);
  for (bool jk : {false, true}) {
    for (bool attention : {false, true}) {
      const RgcnConfig config = Config(jk, attention, 4, 0.0f);
      ExpectLayerBitEqual(config, sub, /*input_requires_grad=*/true);
      Rng init(17);
      RgcnEncoder encoder(config, &init);
      PairRun fused =
          RunPair(encoder, sub, sub, /*training=*/true, FusedForward);
      PairRun composed =
          RunPair(encoder, sub, sub, /*training=*/true, ComposedForward);
      ExpectSinksBitEqual(encoder, fused.sink, composed.sink, Label(config));
      for (size_t slot = 0; slot < fused.sink.size(); ++slot) {
        const std::string& name = encoder.parameters()[slot].name;
        const bool dense = name.find(".self") != std::string::npos ||
                           (name.find(".bias") != std::string::npos &&
                            name.find("att.") == std::string::npos);
        EXPECT_EQ(fused.sink.has(slot), dense) << name;
      }
    }
  }
}

}  // namespace
}  // namespace dekg::gnn
