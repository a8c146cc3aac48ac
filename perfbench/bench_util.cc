#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t index = static_cast<size_t>(pos + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuSplit SplitCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  CpuSplit split;
  if (cpus.size() < 2) return split;  // nothing to separate
  const size_t half = cpus.size() / 2;
  split.measured.assign(cpus.begin(), cpus.begin() + static_cast<long>(half));
  split.generator.assign(cpus.begin() + static_cast<long>(half), cpus.end());
  return split;
}

void PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void Log(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::fprintf(stderr, "[perfbench %7.2fs] ", Now());
  std::vfprintf(stderr, format, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace perfbench
