// Inputs are a pure function of (workload, seed): generating twice with
// one seed gives byte-identical files, and another seed changes the
// seed's samples while the workload's world stays the same.
//
// Usage: perfbench_inputs_test <work dir>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "inputs.h"

namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_inputs_test <work dir>\n");
    return 2;
  }
  const std::string root = argv[1];
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
    ++failures;
  };
  for (Workload w :
       {Workload::kTrainEval, Workload::kServeHubs, Workload::kServeIngest}) {
    const std::string name = WorkloadName(w);
    const std::string a = root + "/" + name + "-a";
    const std::string b = root + "/" + name + "-b";
    for (const std::string& dir : {a, b}) std::filesystem::remove_all(dir);
    EnsureInputs(w, 7, a);
    EnsureInputs(w, 7, b);
    EnsureInputs(w, 8, a);
    for (const std::string& file : InputFiles(w, 7)) {
      const std::string first = ReadAll(a + "/" + file);
      if (first.empty()) fail(name + ": " + file + " is empty");
      if (first != ReadAll(b + "/" + file)) {
        fail(name + ": " + file + " differs for one seed");
      }
    }
    const std::vector<std::string> seven = InputFiles(w, 7);
    const std::vector<std::string> eight = InputFiles(w, 8);
    for (size_t i = 0; i < seven.size(); ++i) {
      const bool shared = seven[i] == eight[i];  // a world file
      const bool same = ReadAll(a + "/" + seven[i]) == ReadAll(a + "/" + eight[i]);
      if (!shared && same) fail(name + ": seeds 7 and 8 give the same " + seven[i]);
    }
    for (const std::string& dir : {a, b}) std::filesystem::remove_all(dir);
    std::fprintf(stderr, "%s: %s\n", name.c_str(), failures == 0 ? "ok" : "FAILED");
  }
  return failures == 0 ? 0 : 1;
}
