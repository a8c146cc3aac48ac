// Live DEKG adjacency for the online scoring server (DESIGN.md §9).
//
// Wraps the GraphWriter of an append-only graph store behind an ingestion
// API with the validation and accounting the server needs: whole-batch
// (atomic) admission, entity-space growth up to a hard cap, duplicate
// counting, and a record of which entities each accepted batch touched
// (the serve engine refreshes exactly those CLRM embedding rows and
// maintains exactly the cached subgraphs they can affect).
//
// Determinism: a server built from the train triples that ingests the
// emerging triples in file order holds a graph identical — same edge ids,
// same adjacency order — to the offline inference graph built statically
// from train + emerging. That is the ordering invariant documented on
// GraphWriter, and it is what makes online scores bit-identical to
// offline Evaluate.
//
// Not thread-safe: one thread owns all calls. graph() is a view of the
// state after the last Ingest; views taken from it stay valid and
// unchanged while later ingests append (DESIGN.md §14).
#ifndef DEKG_SERVE_LIVE_GRAPH_H_
#define DEKG_SERVE_LIVE_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"
#include "serve/protocol.h"

namespace dekg::serve {

// Validates a scoring request against `graph`: relation in vocabulary,
// entities within the graph's entity space (an id the graph has never
// seen cannot be scored — it has no table row). Free function so the
// engine can validate against an immutable snapshot graph, not just the
// writer-side LiveGraph.
Status ValidateTriplesForScoring(const KnowledgeGraph& graph,
                                 const std::vector<Triple>& triples,
                                 std::string* error);

struct LiveGraphConfig {
  // Hard cap on entity-id space growth; an ingest that would exceed it is
  // rejected whole (kBadEntity). Bounds what a hostile id can make the
  // server allocate: one CLRM fusion row and one adjacency slot per
  // entity id below it.
  int32_t max_entities = 1 << 20;
};

// Per-batch ingestion outcome (successful admissions only).
struct IngestReport {
  uint32_t accepted = 0;
  uint32_t duplicates = 0;    // triples already present (kept — the
                              // multiplicity feeds the CLRM tables)
  uint32_t new_entities = 0;  // entity-id space growth
  // Entities whose relation-component table changed (deduplicated,
  // ascending): the endpoints of every accepted triple. These are the
  // only entities whose CLRM embedding rows need refreshing, and new
  // edges incident to them are the only ones that can invalidate a
  // cached subgraph.
  std::vector<EntityId> touched_entities;
};

class LiveGraph {
 public:
  // Copies the base graph — offline, the train split — into a store this
  // LiveGraph alone appends to. Emerging triples arrive via Ingest.
  LiveGraph(const KnowledgeGraph& base, const LiveGraphConfig& config);

  const KnowledgeGraph& graph() const { return graph_; }

  // Validates the whole batch, then applies it in order. Admission is
  // atomic: any invalid triple rejects the batch with a clear error and
  // changes nothing. Validation rules:
  //  * relation id must be in the checkpointed vocabulary (kUnknownRelation)
  //  * entity ids must be >= 0 and < max_entities (kBadEntity)
  // Entity ids beyond the current space (but under the cap) grow it; a
  // brand-new entity with no other incident triples is legal and scores
  // through the all-zero relation table (the zero CLRM embedding).
  Status Ingest(const std::vector<Triple>& triples, IngestReport* report,
                std::string* error);

  // ValidateTriplesForScoring against the current graph.
  Status ValidateForScoring(const std::vector<Triple>& triples,
                            std::string* error) const {
    return ValidateTriplesForScoring(graph_, triples, error);
  }

  uint64_t ingested_triples() const { return ingested_; }

 private:
  LiveGraphConfig config_;
  GraphWriter writer_;
  KnowledgeGraph graph_;  // writer_.View() as of the last Ingest
  uint64_t ingested_ = 0;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_LIVE_GRAPH_H_
