#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Add(std::string name, double start, double end, int64_t parent,
                    int64_t request) {
  spans_.push_back(Span{std::move(name), start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(std::string name, int64_t parent, int64_t request) {
  return Add(std::move(name), 0.0, 0.0, parent, request);
}

void Tracer::Close(int64_t id, double start, double end) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.start = start;
  s.end = end;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

void Tracer::Report(const char* workload) const {
  std::fprintf(stderr, "per-layer self time, %s (%zu spans)\n", workload,
               spans_.size());
  std::fprintf(stderr, "  %-36s %8s %12s %12s %12s\n", "span", "count",
               "total_ms", "self_ms", "self_us/call");
  for (const auto& [name, t] : Summarize()) {
    std::fprintf(stderr, "  %-36s %8lld %12.2f %12.2f %12.2f\n", name.c_str(),
                 static_cast<long long>(t.count), t.total_s * 1e3,
                 t.self_s * 1e3,
                 t.count > 0 ? t.self_s * 1e6 / static_cast<double>(t.count)
                             : 0.0);
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_s\tend_s\tparent\trequest\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%lld\t%lld\n", i, s.name.c_str(),
                 s.start, s.end, static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double Tracer::CostPerSpan() {
  constexpr int kSpans = 100000;
  Tracer probe;
  probe.spans_.reserve(kSpans);
  const double start = Now();
  for (int i = 0; i < kSpans; ++i) {
    probe.Time("router.ScoreBatch", -1, i, [] {});
  }
  return (Now() - start) / kSpans;
}

}  // namespace perfbench
