// Core knowledge-graph data structures: triples, string vocabularies, and
// an indexed graph — immutable views over an append-only store — used by
// subgraph extraction, negative sampling, and relation-component tables
// (CLRM).
#ifndef DEKG_KG_KNOWLEDGE_GRAPH_H_
#define DEKG_KG_KNOWLEDGE_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/chunked_vector.h"
#include "common/logging.h"

namespace dekg {

using EntityId = int32_t;
using RelationId = int32_t;

// A fact (h, r, t).
struct Triple {
  EntityId head = 0;
  RelationId rel = 0;
  EntityId tail = 0;

  friend bool operator==(const Triple&, const Triple&) = default;
};

// Hash for unordered containers of triples.
struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(t.head)) << 40) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(t.rel)) << 20) ^
                 static_cast<uint64_t>(static_cast<uint32_t>(t.tail));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

using TripleSet = std::unordered_set<Triple, TripleHash>;

// Bidirectional string<->id mapping for entities and relations. Entity and
// relation namespaces are independent.
class Vocabulary {
 public:
  // Returns existing id or assigns the next one.
  EntityId InternEntity(const std::string& name);
  RelationId InternRelation(const std::string& name);

  // -1 if unknown.
  EntityId FindEntity(const std::string& name) const;
  RelationId FindRelation(const std::string& name) const;

  const std::string& EntityName(EntityId id) const;
  const std::string& RelationName(RelationId id) const;

  int32_t num_entities() const { return static_cast<int32_t>(entity_names_.size()); }
  int32_t num_relations() const { return static_cast<int32_t>(relation_names_.size()); }

 private:
  std::unordered_map<std::string, EntityId> entity_ids_;
  std::unordered_map<std::string, RelationId> relation_ids_;
  std::vector<std::string> entity_names_;
  std::vector<std::string> relation_names_;
};

// An edge as stored by the graph: direction matters (src --rel--> dst).
struct Edge {
  EntityId src;
  RelationId rel;
  EntityId dst;
};

namespace internal {

// One adjacency list: `size` ascending edge ids stored right after the
// header, room for `capacity`. The writer appends in place while there is
// room and otherwise moves the list into a block twice as large; a block
// is never written below its published size and never freed before its
// store, so a reader may scan whichever block it loaded. `last` repeats
// the newest id, so a reader learns from the header alone whether the
// list holds ids past its view (the tail of a long list is another cache
// line).
struct AdjBlock {
  std::atomic<uint32_t> size{0};
  uint32_t capacity = 0;
  std::atomic<int32_t> last{-1};

  int32_t* ids() { return reinterpret_cast<int32_t*>(this + 1); }
  const int32_t* ids() const {
    return reinterpret_cast<const int32_t*>(this + 1);
  }
};

// The append-only, versioned storage behind KnowledgeGraph views and the
// GraphWriter that grows it (DESIGN.md §14). Reads take the view's
// (edge_count) bound and see exactly the first edge_count edges, however
// far the writer has appended since; see KnowledgeGraph for the layout.
class GraphStore {
 public:
  // Bulk build: adjacency lists packed back to back at exact capacity,
  // the triple index sized with room to grow, room for `edge_capacity`
  // edges (at least the triples) before the edge array moves.
  GraphStore(int32_t num_entities, int32_t num_relations,
             const std::vector<Triple>& triples, size_t edge_capacity);
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  // ----- Reads: any thread, ids and edge_count within a published view,
  // `edges` the view's edge array.
  std::span<const int32_t> IncidentEdges(EntityId node,
                                         int64_t edge_count) const;
  bool Contains(const Triple& t, int64_t edge_count, const Edge* edges) const;

  // ----- Writer side (one thread).
  int32_t num_entities() const { return static_cast<int32_t>(lists_.size()); }
  int32_t num_relations() const { return num_relations_; }
  int64_t num_edges() const { return num_edges_; }
  // The current edge array: every id below num_edges(), never rewritten.
  const std::shared_ptr<Edge[]>& edges() const { return edges_; }
  void GrowEntities(int32_t num_entities);
  // Appends t (ids in range) and returns whether an equal triple was
  // already present.
  bool Append(const Triple& t);

 private:
  // Open-addressing set of the distinct triples: each slot holds the
  // first edge id of its triple plus one (0 = empty). Insert-only with
  // ids inserted in ascending order, so the probe run in front of a
  // triple's slot holds only smaller ids — a reader stops at the first
  // slot past its edge_count.
  struct TripleIndex {
    explicit TripleIndex(size_t capacity)
        : slots(new std::atomic<uint32_t>[capacity]()), mask(capacity - 1) {}
    std::unique_ptr<std::atomic<uint32_t>[]> slots;
    size_t mask;
  };

  void AppendToList(EntityId node, int32_t edge_id);
  // Indexes edge `edge_id` unless an equal triple is indexed; returns
  // whether one was.
  bool Index(int32_t edge_id);
  // Swaps in a table twice as large holding edges [0, edge_count).
  void GrowIndex(int64_t edge_count);

  int32_t num_relations_;
  // Edges in id order. An append past the capacity moves them into an
  // array twice as large; a view keeps the array it was made from.
  std::shared_ptr<Edge[]> edges_;
  size_t edge_capacity_ = 0;
  int64_t num_edges_ = 0;
  ChunkedVector<std::atomic<AdjBlock*>, 10> lists_;
  std::atomic<TripleIndex*> index_{nullptr};
  // Writer-only bookkeeping. Tables and blocks replaced by the writer
  // stay here until the store dies: an older view may still read them.
  std::vector<std::unique_ptr<TripleIndex>> indexes_;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  size_t distinct_ = 0;
};

}  // namespace internal

// A multigraph over [0, num_entities) x [0, num_relations). Provides
//  * undirected adjacency (edge ids incident to a node, either direction,
//    in ascending id order),
//  * per-entity relation-component tables a_i^k (CLRM, Eq. 2),
//  * membership tests for the filtered evaluation setting.
//
// Construction: collect triples, then Build(). A built graph is an
// immutable *view* — (shared store, entity count, edge count) — of an
// append-only store; copies are O(1) and share the store. There is no
// way to append through a view: only a GraphWriter appends, to the store
// it alone owns, so a view never changes after it is made. A view
// answers every query exactly as BuildGraph over its triple prefix would:
//  * edge ids are dense in arrival order; the view holds the edge array
//    it was made from, which the writer only appends past the view's
//    count (a full array moves to a larger one; old views keep theirs),
//  * each adjacency list is one contiguous array of ascending edge ids,
//    so the view's list is the prefix with id < edge count — the whole
//    array in O(1) unless the writer appended to that node since, then
//    one binary search,
//  * Contains(t) is "the first edge id of t is < edge count".
// Views are safe to read from any number of threads while the writer
// keeps appending (DESIGN.md §14).
class KnowledgeGraph {
 public:
  KnowledgeGraph(int32_t num_entities, int32_t num_relations);

  // Builder phase. Ids must be in range. Duplicate triples are kept (the
  // multiplicity feeds a_i^k).
  void AddTriple(const Triple& t);
  void AddTriples(const std::vector<Triple>& triples);
  // Freezes the graph and builds the indexes. Idempotent.
  void Build();

  bool built() const { return store_ != nullptr; }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  int64_t num_triples() const {
    return built() ? num_edges_ : static_cast<int64_t>(pending_.size());
  }

  // Built graphs only, like every query below.
  const Edge& edge(int64_t edge_id) const {
    return edges_[static_cast<size_t>(edge_id)];
  }

  // Edge ids incident to `node` in either direction, ascending.
  std::span<const int32_t> IncidentEdges(EntityId node) const;
  // Degree counting both directions (self-loops counted once).
  int64_t Degree(EntityId node) const;

  bool Contains(const Triple& t) const;

  // Relation-component table row for an entity: counts[k] = number of
  // incident triples (either direction) whose relation is k. (Eq. 2.)
  std::vector<int32_t> RelationComponentTable(EntityId node) const;

  // All triples as a flat list (edge order).
  std::vector<Triple> Triples() const;

 private:
  friend class GraphWriter;
  KnowledgeGraph(std::shared_ptr<const internal::GraphStore> store,
                 int32_t num_entities, int64_t num_edges,
                 std::shared_ptr<const Edge[]> edges);

  int32_t num_entities_;
  int32_t num_relations_;
  int64_t num_edges_ = 0;
  std::vector<Triple> pending_;  // builder phase only
  std::shared_ptr<const internal::GraphStore> store_;
  std::shared_ptr<const Edge[]> edges_;
};

// The single writer of an append-only graph store: the online-serving
// ingest path. Appends keep each adjacency list in ascending edge-id
// order — the order a bulk build produces — so for any triple sequence,
// "build a prefix, then append the rest" and "build everything" give
// identical views, and therefore bit-identical subgraph extractions.
// Not copyable: every writer owns its store, so two writers built from
// one base graph never append into storage the other can see.
class GraphWriter {
 public:
  // Copies the built `base` into a fresh store: O(V + E), once.
  explicit GraphWriter(const KnowledgeGraph& base);
  GraphWriter(const GraphWriter&) = delete;
  GraphWriter& operator=(const GraphWriter&) = delete;

  int32_t num_entities() const { return store_->num_entities(); }
  int64_t num_triples() const { return store_->num_edges(); }

  // Raises the entity-id space (no-op when already at least that large).
  // New entities start isolated.
  void GrowEntities(int32_t num_entities) {
    store_->GrowEntities(num_entities);
  }
  // Appends one triple; ids must be in range (grow the entity space
  // first). Duplicates are kept. Returns whether an equal triple was
  // already present.
  bool Append(const Triple& t) { return store_->Append(t); }

  // O(1) view of everything appended so far. Later appends never show
  // through it.
  KnowledgeGraph View() const {
    return KnowledgeGraph(store_, num_entities(), num_triples(),
                          store_->edges());
  }

 private:
  std::shared_ptr<internal::GraphStore> store_;
};

// ----- TSV I/O -----
// Each line: head<TAB>relation<TAB>tail. Names are interned into *vocab.
std::vector<Triple> LoadTriplesTsv(const std::string& path, Vocabulary* vocab);
void SaveTriplesTsv(const std::string& path, const std::vector<Triple>& triples,
                    const Vocabulary& vocab);

// Builds a graph spanning the given vocabulary sizes from a triple list.
KnowledgeGraph BuildGraph(int32_t num_entities, int32_t num_relations,
                          const std::vector<Triple>& triples);

}  // namespace dekg

#endif  // DEKG_KG_KNOWLEDGE_GRAPH_H_
