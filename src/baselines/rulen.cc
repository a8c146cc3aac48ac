#include "baselines/rulen.h"

#include <algorithm>
#include <unordered_set>

namespace dekg::baselines {

namespace {

// Packs an ordered entity pair into one key.
int64_t PairKey(EntityId x, EntityId y, int32_t num_entities) {
  return static_cast<int64_t>(x) * num_entities + y;
}

// Directional membership: does atom(rel, inverse) hold from a to b?
bool AtomHolds(const KnowledgeGraph& g, const RuleN::Atom& atom, EntityId a,
               EntityId b) {
  return atom.inverse ? g.Contains(Triple{b, atom.rel, a})
                      : g.Contains(Triple{a, atom.rel, b});
}

// Key identifying a rule body for aggregation maps.
struct BodyKey {
  int32_t r1;
  bool d1;
  int32_t r2;  // -1 for length-1 bodies
  bool d2;
  friend bool operator==(const BodyKey&, const BodyKey&) = default;
};
struct BodyKeyHash {
  size_t operator()(const BodyKey& k) const {
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.r1)) << 34) ^
                 (static_cast<uint64_t>(k.d1) << 33) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(k.r2 + 1)) << 1) ^
                 static_cast<uint64_t>(k.d2);
    x *= 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(x ^ (x >> 29));
  }
};

}  // namespace

void RuleN::Mine(const DekgDataset& dataset) {
  const KnowledgeGraph& g = dataset.original_graph();
  const int32_t n = g.num_entities();

  // Ordered pair -> directional atoms that connect it.
  std::unordered_map<int64_t, std::vector<Atom>> atoms_of_pair;
  for (int64_t id = 0; id < g.num_triples(); ++id) {
    const Edge& e = g.edge(id);
    atoms_of_pair[PairKey(e.src, e.dst, n)].push_back(Atom{e.rel, false});
    atoms_of_pair[PairKey(e.dst, e.src, n)].push_back(Atom{e.rel, true});
  }
  // Relations (forward only) holding on an ordered pair, for support
  // counting.
  auto relations_on_pair = [&](EntityId x, EntityId y) {
    std::vector<RelationId> rels;
    auto it = atoms_of_pair.find(PairKey(x, y, n));
    if (it == atoms_of_pair.end()) return rels;
    for (const Atom& a : it->second) {
      if (!a.inverse) rels.push_back(a.rel);
    }
    return rels;
  };

  // Bodies -> set of ordered pairs they connect.
  std::unordered_map<BodyKey, std::unordered_set<int64_t>, BodyKeyHash> bodies;

  // Length-1 bodies: every directional atom instance.
  for (const auto& [key, atoms] : atoms_of_pair) {
    for (const Atom& a : atoms) {
      bodies[BodyKey{a.rel, a.inverse, -1, false}].insert(key);
    }
  }

  // Length-2 bodies through every middle node (degree-capped for hubs).
  constexpr size_t kMaxHubEdges = 100;
  for (EntityId z = 0; z < n; ++z) {
    std::span<const int32_t> incident = g.IncidentEdges(z);
    const size_t limit = std::min(incident.size(), kMaxHubEdges);
    for (size_t i = 0; i < limit; ++i) {
      const Edge& e1 = g.edge(incident[i]);
      // Atom 1 traverses x -> z.
      const EntityId x = e1.src == z ? e1.dst : e1.src;
      const bool d1_inverse = e1.src == z;  // (z, r, x) read from x is inverse
      for (size_t j = 0; j < limit; ++j) {
        if (i == j) continue;
        const Edge& e2 = g.edge(incident[j]);
        // Atom 2 traverses z -> y.
        const EntityId y = e2.src == z ? e2.dst : e2.src;
        const bool d2_inverse = e2.dst == z;  // (y, r, z) read from z is inverse
        if (x == y) continue;
        bodies[BodyKey{e1.rel, d1_inverse, e2.rel, d2_inverse}].insert(
            PairKey(x, y, n));
      }
    }
  }

  // Confidence = support / body-count (Laplace +1 in the denominator).
  std::unordered_map<RelationId, std::vector<MinedRule>> per_head;
  for (const auto& [body, pairs] : bodies) {
    std::unordered_map<RelationId, int32_t> support;
    for (int64_t key : pairs) {
      const EntityId x = static_cast<EntityId>(key / n);
      const EntityId y = static_cast<EntityId>(key % n);
      for (RelationId r : relations_on_pair(x, y)) ++support[r];
    }
    for (const auto& [head, count] : support) {
      // Trivial self-rule r(x,y) => r(x,y) is excluded.
      if (body.r2 == -1 && body.r1 == head && !body.d1) continue;
      if (count < config_.min_support) continue;
      const double confidence =
          static_cast<double>(count) / (static_cast<double>(pairs.size()) + 1.0);
      if (confidence < config_.min_confidence) continue;
      MinedRule rule;
      rule.body.push_back(Atom{body.r1, body.d1});
      if (body.r2 >= 0) rule.body.push_back(Atom{body.r2, body.d2});
      rule.head = head;
      rule.confidence = confidence;
      per_head[head].push_back(std::move(rule));
    }
  }

  rules_.clear();
  rules_by_head_.clear();
  for (auto& [head, head_rules] : per_head) {
    std::sort(head_rules.begin(), head_rules.end(),
              [](const MinedRule& a, const MinedRule& b) {
                return a.confidence > b.confidence;
              });
    if (static_cast<int32_t>(head_rules.size()) >
        config_.max_rules_per_relation) {
      head_rules.resize(static_cast<size_t>(config_.max_rules_per_relation));
    }
    for (MinedRule& rule : head_rules) {
      rules_by_head_[head].push_back(rules_.size());
      rules_.push_back(std::move(rule));
    }
  }
}

std::vector<double> RuleN::ScoreTriples(const KnowledgeGraph& inference_graph,
                                        const std::vector<Triple>& triples) {
  std::vector<double> scores;
  scores.reserve(triples.size());
  for (const Triple& t : triples) {
    auto it = rules_by_head_.find(t.rel);
    double not_fired = 1.0;
    if (it != rules_by_head_.end()) {
      for (size_t idx : it->second) {
        const MinedRule& rule = rules_[idx];
        bool fires = false;
        if (rule.body.size() == 1) {
          fires = AtomHolds(inference_graph, rule.body[0], t.head, t.tail);
        } else {
          // exists z: atom1(h, z) ∧ atom2(z, t). Scan h's incident edges.
          for (int32_t eid : inference_graph.IncidentEdges(t.head)) {
            const Edge& e = inference_graph.edge(eid);
            if (e.rel != rule.body[0].rel) continue;
            EntityId z;
            if (!rule.body[0].inverse && e.src == t.head) {
              z = e.dst;
            } else if (rule.body[0].inverse && e.dst == t.head) {
              z = e.src;
            } else {
              continue;
            }
            if (AtomHolds(inference_graph, rule.body[1], z, t.tail)) {
              fires = true;
              break;
            }
          }
        }
        if (fires) not_fired *= 1.0 - rule.confidence;
      }
    }
    scores.push_back(1.0 - not_fired);  // noisy-or combination
  }
  return scores;
}

int64_t RuleN::ParameterCount() const {
  // Each mined rule stores a confidence plus (up to) two body atoms.
  return static_cast<int64_t>(rules_.size()) * 3;
}

}  // namespace dekg::baselines
