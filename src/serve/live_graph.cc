#include "serve/live_graph.h"

#include <algorithm>

namespace dekg::serve {

LiveGraph::LiveGraph(const KnowledgeGraph& base, const LiveGraphConfig& config)
    : config_(config), writer_(base), graph_(writer_.View()) {
  DEKG_CHECK_LE(graph_.num_entities(), config_.max_entities)
      << "base graph already exceeds max_entities";
}

Status LiveGraph::Ingest(const std::vector<Triple>& triples,
                         IngestReport* report, std::string* error) {
  if (triples.empty()) {
    *error = "empty ingest batch";
    return Status::kBadRequest;
  }
  // Validation pass first: admission is all-or-nothing.
  for (size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    if (t.rel < 0 || t.rel >= graph_.num_relations()) {
      *error = "triple " + std::to_string(i) + ": unknown relation id " +
               std::to_string(t.rel) + " (vocabulary has " +
               std::to_string(graph_.num_relations()) + " relations)";
      return Status::kUnknownRelation;
    }
    if (t.head < 0 || t.head >= config_.max_entities || t.tail < 0 ||
        t.tail >= config_.max_entities) {
      *error = "triple " + std::to_string(i) + ": entity id out of range [0, " +
               std::to_string(config_.max_entities) + ")";
      return Status::kBadEntity;
    }
  }

  const int32_t old_entities = graph_.num_entities();
  int32_t needed_entities = old_entities;
  for (const Triple& t : triples) {
    needed_entities = std::max(needed_entities, t.head + 1);
    needed_entities = std::max(needed_entities, t.tail + 1);
  }
  writer_.GrowEntities(needed_entities);

  report->accepted = 0;
  report->duplicates = 0;
  report->new_entities = static_cast<uint32_t>(needed_entities - old_entities);
  report->touched_entities.clear();
  for (const Triple& t : triples) {
    if (writer_.Append(t)) ++report->duplicates;
    ++report->accepted;
    report->touched_entities.push_back(t.head);
    report->touched_entities.push_back(t.tail);
  }
  ingested_ += triples.size();
  graph_ = writer_.View();
  std::sort(report->touched_entities.begin(), report->touched_entities.end());
  report->touched_entities.erase(
      std::unique(report->touched_entities.begin(),
                  report->touched_entities.end()),
      report->touched_entities.end());
  return Status::kOk;
}

Status ValidateTriplesForScoring(const KnowledgeGraph& graph,
                                 const std::vector<Triple>& triples,
                                 std::string* error) {
  if (triples.empty()) {
    *error = "empty triple list";
    return Status::kBadRequest;
  }
  for (size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    if (t.rel < 0 || t.rel >= graph.num_relations()) {
      *error = "triple " + std::to_string(i) + ": unknown relation id " +
               std::to_string(t.rel);
      return Status::kUnknownRelation;
    }
    if (t.head < 0 || t.head >= graph.num_entities() || t.tail < 0 ||
        t.tail >= graph.num_entities()) {
      *error = "triple " + std::to_string(i) +
               ": entity id outside the current entity space [0, " +
               std::to_string(graph.num_entities()) + ")";
      return Status::kBadEntity;
    }
  }
  return Status::kOk;
}

}  // namespace dekg::serve
