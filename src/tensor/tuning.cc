#include "tensor/tuning.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace dekg::tune {

namespace {

// Parses a positive integer env override; returns fallback on absence or
// malformed input. Each call site caches the result in a function-local
// static, so the env is consulted exactly once per knob per process.
int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || v <= 0) {
    DEKG_WARN() << name << "=\"" << raw << "\" is not a positive integer; "
                << "using default " << fallback;
    return fallback;
  }
  return static_cast<int64_t>(v);
}

}  // namespace

int64_t ParallelElementwiseMin() {
  static const int64_t v = EnvInt64("DEKG_TUNE_PARALLEL_ELEMENTWISE_MIN",
                                    kDefaultParallelElementwiseMin);
  return v;
}

int64_t ParallelMatMulMinFlops() {
  static const int64_t v = EnvInt64("DEKG_TUNE_PARALLEL_MATMUL_MIN_FLOPS",
                                    kDefaultParallelMatMulMinFlops);
  return v;
}

}  // namespace dekg::tune
