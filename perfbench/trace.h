// In-memory spans of the traced run. Spans are recorded by the benchmark
// around its own calls into each layer's public functions (nothing in
// src/ is instrumented), kept in memory, and written once at exit.
//
// A layer's self time is its span's duration minus the durations of its
// child spans. A child may be a replay of part of its parent's work run
// beside it (the engine's extract / forward / CLRM stages re-run on the
// same triples after Router::ScoreBatch), so children are subtracted by
// duration rather than by the part of the parent's interval they cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;   // index of the causing span; -1 for a root
    int64_t request = -1;  // request / batch / example id; -1 for none
  };

  // Records a finished span and returns its id.
  int64_t Add(std::string name, double start, double end, int64_t parent = -1,
              int64_t request = -1);

  // Runs fn() inside a span; returns the span id.
  template <typename Fn>
  int64_t Time(std::string name, int64_t parent, int64_t request, Fn&& fn) {
    const double start = Now();
    fn();
    return Add(std::move(name), start, Now(), parent, request);
  }

  // Reserves a span slot for a parent whose children are recorded while
  // it runs; Close() fills in its interval.
  int64_t Open(std::string name, int64_t parent = -1, int64_t request = -1);
  void Close(int64_t id, double start, double end);

  const Span& span(int64_t id) const { return spans_[static_cast<size_t>(id)]; }
  double Duration(int64_t id) const { return span(id).end - span(id).start; }

  struct Totals {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  // Per span name: count, summed duration, summed self time.
  std::map<std::string, Totals> Summarize() const;

  // Prints the per-layer self-time table to stderr.
  void Report(const char* workload) const;

  // Writes every span as TSV (id, name, start, end, parent, request).
  bool Write(const std::string& path) const;

  // Seconds one Add() costs, measured on a throwaway tracer; times the
  // number of spans recorded, this is the run's tracing overhead.
  static double CostPerSpan();
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
