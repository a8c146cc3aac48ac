#include "kg/knowledge_graph.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <limits>
#include <new>

#include "common/string_util.h"

namespace dekg {

EntityId Vocabulary::InternEntity(const std::string& name) {
  auto it = entity_ids_.find(name);
  if (it != entity_ids_.end()) return it->second;
  EntityId id = static_cast<EntityId>(entity_names_.size());
  entity_ids_.emplace(name, id);
  entity_names_.push_back(name);
  return id;
}

RelationId Vocabulary::InternRelation(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  RelationId id = static_cast<RelationId>(relation_names_.size());
  relation_ids_.emplace(name, id);
  relation_names_.push_back(name);
  return id;
}

EntityId Vocabulary::FindEntity(const std::string& name) const {
  auto it = entity_ids_.find(name);
  return it == entity_ids_.end() ? -1 : it->second;
}

RelationId Vocabulary::FindRelation(const std::string& name) const {
  auto it = relation_ids_.find(name);
  return it == relation_ids_.end() ? -1 : it->second;
}

const std::string& Vocabulary::EntityName(EntityId id) const {
  DEKG_CHECK(id >= 0 && id < num_entities()) << "entity id " << id;
  return entity_names_[static_cast<size_t>(id)];
}

const std::string& Vocabulary::RelationName(RelationId id) const {
  DEKG_CHECK(id >= 0 && id < num_relations()) << "relation id " << id;
  return relation_names_[static_cast<size_t>(id)];
}

namespace internal {

namespace {

// Shared by every node with no incident edge yet. Capacity 0, so the
// writer's first append to such a node moves it into a block of its own.
AdjBlock g_empty_list;

// Smallest block a writer moves a list into.
constexpr uint32_t kMinListCapacity = 4;

// Initial triple-index size: the table doubles at half load, so a fresh
// store absorbs at least a sixth of its triples again before its first
// rehash.
size_t InitialIndexCapacity(size_t num_triples) {
  return std::max<size_t>(64, std::bit_ceil(3 * num_triples));
}

bool SameTriple(const Edge& e, const Triple& t) {
  return e.src == t.head && e.rel == t.rel && e.dst == t.tail;
}

}  // namespace

GraphStore::GraphStore(int32_t num_entities, int32_t num_relations,
                       const std::vector<Triple>& triples,
                       size_t edge_capacity)
    : num_relations_(num_relations),
      edges_(std::make_shared_for_overwrite<Edge[]>(
          std::max(edge_capacity, triples.size()))),
      edge_capacity_(std::max(edge_capacity, triples.size())),
      num_edges_(static_cast<int64_t>(triples.size())) {
  DEKG_CHECK_LT(triples.size(),
                static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  std::vector<uint32_t> degree(static_cast<size_t>(num_entities), 0);
  for (size_t id = 0; id < triples.size(); ++id) {
    const Triple& t = triples[id];
    edges_[id] = Edge{t.head, t.rel, t.tail};
    ++degree[static_cast<size_t>(t.head)];
    if (t.tail != t.head) ++degree[static_cast<size_t>(t.tail)];
  }
  // Every non-empty list at exact capacity in one arena: header, then ids.
  size_t words = 0;
  for (uint32_t d : degree) {
    if (d > 0) words += sizeof(AdjBlock) / sizeof(int32_t) + d;
  }
  auto arena = std::make_unique_for_overwrite<std::byte[]>(
      std::max<size_t>(words, 1) * sizeof(int32_t));
  std::byte* cursor = arena.get();
  for (int32_t v = 0; v < num_entities; ++v) {
    const uint32_t d = degree[static_cast<size_t>(v)];
    if (d == 0) {
      lists_.emplace_back(&g_empty_list);
      continue;
    }
    AdjBlock* block = new (cursor) AdjBlock;
    block->capacity = d;
    lists_.emplace_back(block);
    cursor += sizeof(AdjBlock) + d * sizeof(int32_t);
  }
  blocks_.push_back(std::move(arena));
  // Filling in id order leaves every list ascending, and the index gets
  // its ids in ascending order too.
  indexes_.push_back(
      std::make_unique<TripleIndex>(InitialIndexCapacity(triples.size())));
  index_.store(indexes_.back().get(), std::memory_order_release);
  for (size_t id = 0; id < triples.size(); ++id) {
    const Triple& t = triples[id];
    AppendToList(t.head, static_cast<int32_t>(id));
    if (t.tail != t.head) AppendToList(t.tail, static_cast<int32_t>(id));
    Index(static_cast<int32_t>(id));
  }
}

std::span<const int32_t> GraphStore::IncidentEdges(EntityId node,
                                                   int64_t edge_count) const {
  const AdjBlock* block =
      lists_[static_cast<size_t>(node)].load(std::memory_order_acquire);
  const int32_t* ids = block->ids();
  size_t n = block->size.load(std::memory_order_acquire);
  // Ids appended after the view's epoch sit at the end of the ascending
  // list; cut them off. `last` is at least ids[n - 1] (written before the
  // size store this load acquired), so below edge_count nothing needs
  // cutting.
  if (block->last.load(std::memory_order_relaxed) >= edge_count) {
    n = static_cast<size_t>(std::lower_bound(ids, ids + n, edge_count) - ids);
  }
  return {ids, n};
}

bool GraphStore::Contains(const Triple& t, int64_t edge_count,
                          const Edge* edges) const {
  const TripleIndex* index = index_.load(std::memory_order_acquire);
  for (size_t i = TripleHash{}(t) & index->mask;; i = (i + 1) & index->mask) {
    const uint32_t slot = index->slots[i].load(std::memory_order_acquire);
    // An empty slot, or a triple first added after the view, ends t's
    // probe run: had t been added before the view, it would sit in front.
    if (slot == 0 || slot > edge_count) return false;
    if (SameTriple(edges[slot - 1], t)) return true;
  }
}

void GraphStore::GrowEntities(int32_t num_entities) {
  while (static_cast<int32_t>(lists_.size()) < num_entities) {
    lists_.emplace_back(&g_empty_list);
  }
}

bool GraphStore::Append(const Triple& t) {
  DEKG_CHECK(t.head >= 0 && t.head < num_entities()) << "head " << t.head;
  DEKG_CHECK(t.tail >= 0 && t.tail < num_entities()) << "tail " << t.tail;
  DEKG_CHECK(t.rel >= 0 && t.rel < num_relations_) << "rel " << t.rel;
  DEKG_CHECK_LT(num_edges_, std::numeric_limits<int32_t>::max());
  if (static_cast<size_t>(num_edges_) == edge_capacity_) {
    // Full: move the edges into an array twice as large. Views made so
    // far keep the old array alive.
    edge_capacity_ *= 2;
    auto grown = std::make_shared_for_overwrite<Edge[]>(edge_capacity_);
    std::copy(edges_.get(), edges_.get() + num_edges_, grown.get());
    edges_ = std::move(grown);
  }
  const int32_t id = static_cast<int32_t>(num_edges_);
  // Past every view's edge count, so no reader reads this slot.
  edges_[static_cast<size_t>(id)] = Edge{t.head, t.rel, t.tail};
  ++num_edges_;
  // The same self-loop handling as the bulk build: one entry, not two.
  AppendToList(t.head, id);
  if (t.tail != t.head) AppendToList(t.tail, id);
  return Index(id);
}

void GraphStore::AppendToList(EntityId node, int32_t edge_id) {
  std::atomic<AdjBlock*>& slot = lists_[static_cast<size_t>(node)];
  AdjBlock* block = slot.load(std::memory_order_relaxed);
  const uint32_t n = block->size.load(std::memory_order_relaxed);
  if (n < block->capacity) {
    block->ids()[n] = edge_id;
    block->last.store(edge_id, std::memory_order_relaxed);
    block->size.store(n + 1, std::memory_order_release);
    return;
  }
  // Full: move the list into a block twice as large. The old block stays
  // readable (and owned by blocks_) for views that loaded it.
  const uint32_t capacity = std::max(kMinListCapacity, 2 * n);
  auto storage = std::make_unique_for_overwrite<std::byte[]>(
      sizeof(AdjBlock) + capacity * sizeof(int32_t));
  AdjBlock* grown = new (storage.get()) AdjBlock;
  grown->capacity = capacity;
  std::copy(block->ids(), block->ids() + n, grown->ids());
  grown->ids()[n] = edge_id;
  grown->last.store(edge_id, std::memory_order_relaxed);
  grown->size.store(n + 1, std::memory_order_relaxed);
  blocks_.push_back(std::move(storage));
  slot.store(grown, std::memory_order_release);
}

bool GraphStore::Index(int32_t edge_id) {
  if (2 * (distinct_ + 1) > indexes_.back()->mask + 1) GrowIndex(edge_id);
  TripleIndex* index = indexes_.back().get();
  const Edge& e = edges_[static_cast<size_t>(edge_id)];
  const Triple t{e.src, e.rel, e.dst};
  for (size_t i = TripleHash{}(t) & index->mask;; i = (i + 1) & index->mask) {
    const uint32_t slot = index->slots[i].load(std::memory_order_relaxed);
    if (slot == 0) {
      index->slots[i].store(static_cast<uint32_t>(edge_id) + 1,
                            std::memory_order_release);
      ++distinct_;
      return false;
    }
    if (SameTriple(edges_[slot - 1], t)) return true;
  }
}

void GraphStore::GrowIndex(int64_t edge_count) {
  // Re-inserting in id order keeps the ascending-probe-run invariant.
  indexes_.push_back(
      std::make_unique<TripleIndex>(2 * (indexes_.back()->mask + 1)));
  distinct_ = 0;
  for (int64_t id = 0; id < edge_count; ++id) {
    Index(static_cast<int32_t>(id));
  }
  index_.store(indexes_.back().get(), std::memory_order_release);
}

}  // namespace internal

KnowledgeGraph::KnowledgeGraph(int32_t num_entities, int32_t num_relations)
    : num_entities_(num_entities), num_relations_(num_relations) {
  DEKG_CHECK_GE(num_entities, 0);
  DEKG_CHECK_GE(num_relations, 0);
}

KnowledgeGraph::KnowledgeGraph(
    std::shared_ptr<const internal::GraphStore> store, int32_t num_entities,
    int64_t num_edges, std::shared_ptr<const Edge[]> edges)
    : num_entities_(num_entities),
      num_relations_(store->num_relations()),
      num_edges_(num_edges),
      store_(std::move(store)),
      edges_(std::move(edges)) {}

void KnowledgeGraph::AddTriple(const Triple& t) {
  DEKG_CHECK(!built()) << "AddTriple after Build()";
  DEKG_CHECK(t.head >= 0 && t.head < num_entities_) << "head " << t.head;
  DEKG_CHECK(t.tail >= 0 && t.tail < num_entities_) << "tail " << t.tail;
  DEKG_CHECK(t.rel >= 0 && t.rel < num_relations_) << "rel " << t.rel;
  pending_.push_back(t);
}

void KnowledgeGraph::AddTriples(const std::vector<Triple>& triples) {
  for (const Triple& t : triples) AddTriple(t);
}

void KnowledgeGraph::Build() {
  if (built()) return;
  auto store = std::make_shared<internal::GraphStore>(
      num_entities_, num_relations_, pending_, pending_.size());
  edges_ = store->edges();
  store_ = std::move(store);
  num_edges_ = static_cast<int64_t>(pending_.size());
  pending_.clear();
  pending_.shrink_to_fit();
}

std::span<const int32_t> KnowledgeGraph::IncidentEdges(EntityId node) const {
  DEKG_CHECK(built()) << "IncidentEdges before Build()";
  DEKG_CHECK(node >= 0 && node < num_entities_) << "node " << node;
  return store_->IncidentEdges(node, num_edges_);
}

int64_t KnowledgeGraph::Degree(EntityId node) const {
  return static_cast<int64_t>(IncidentEdges(node).size());
}

bool KnowledgeGraph::Contains(const Triple& t) const {
  DEKG_CHECK(built()) << "Contains before Build()";
  return store_->Contains(t, num_edges_, edges_.get());
}

std::vector<int32_t> KnowledgeGraph::RelationComponentTable(
    EntityId node) const {
  std::vector<int32_t> counts(static_cast<size_t>(num_relations_), 0);
  for (int32_t eid : IncidentEdges(node)) {
    ++counts[static_cast<size_t>(edge(eid).rel)];
  }
  return counts;
}

std::vector<Triple> KnowledgeGraph::Triples() const {
  if (!built()) return pending_;
  std::vector<Triple> out;
  out.reserve(static_cast<size_t>(num_edges_));
  for (int64_t id = 0; id < num_edges_; ++id) {
    const Edge& e = edge(id);
    out.push_back(Triple{e.src, e.rel, e.dst});
  }
  return out;
}

GraphWriter::GraphWriter(const KnowledgeGraph& base)
    : store_(std::make_shared<internal::GraphStore>(
          base.num_entities(), base.num_relations(), base.Triples(),
          // Room to grow; pages are touched only as edges arrive.
          2 * static_cast<size_t>(base.num_triples()) + 4096)) {}

std::vector<Triple> LoadTriplesTsv(const std::string& path, Vocabulary* vocab) {
  std::ifstream in(path);
  DEKG_CHECK(in.good()) << "cannot open " << path;
  std::vector<Triple> triples;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> fields = Split(trimmed, '\t');
    DEKG_CHECK_EQ(fields.size(), 3u) << "bad TSV line: " << line;
    Triple t;
    t.head = vocab->InternEntity(fields[0]);
    t.rel = vocab->InternRelation(fields[1]);
    t.tail = vocab->InternEntity(fields[2]);
    triples.push_back(t);
  }
  return triples;
}

void SaveTriplesTsv(const std::string& path, const std::vector<Triple>& triples,
                    const Vocabulary& vocab) {
  std::ofstream out(path);
  DEKG_CHECK(out.good()) << "cannot open " << path << " for writing";
  for (const Triple& t : triples) {
    out << vocab.EntityName(t.head) << '\t' << vocab.RelationName(t.rel)
        << '\t' << vocab.EntityName(t.tail) << '\n';
  }
}

KnowledgeGraph BuildGraph(int32_t num_entities, int32_t num_relations,
                          const std::vector<Triple>& triples) {
  KnowledgeGraph g(num_entities, num_relations);
  g.AddTriples(triples);
  g.Build();
  return g;
}

}  // namespace dekg
