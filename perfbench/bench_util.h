// Small shared helpers of the benchmark program: monotonic time,
// order statistics, process memory, CPU placement and logging.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();

// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// Peak resident set (VmHWM) of a live process, in MB; `pid` 0 = self.
// Returns 0 when /proc is unreadable.
double PeakRssMb(pid_t pid);

// A measured value under its BENCHMARK.json name. Its unit is stated once,
// in main.cc's metric tables.
struct Metric {
  std::string name;
  double value = 0.0;
};

// CPUs this process may run on, split in two halves: the measured
// program (dekg_serve, or the in-process trainer and evaluator) gets the
// first, the load generator the second. Threads on their own cores time
// far more steadily than threads the kernel migrates among shared ones.
struct CpuSplit {
  std::vector<int> measured;
  std::vector<int> generator;
};
CpuSplit SplitCpus();

// Restricts the calling thread, and the threads it creates afterwards, to
// `cpus`. A no-op when `cpus` is empty or the kernel refuses.
void PinTo(const std::vector<int>& cpus);

// Progress and diagnostics go to stderr, so stdout ends with the result.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
