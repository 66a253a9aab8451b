//===- main.cpp - The mcsafe corpus benchmark -----------------------------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//   mcsafe-perfbench --workload cold-seq|batch-parallel|serve-recheck
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR --serve-bin PATH
//                    [--trace-out FILE] [--plant-wrong-expectation]
//
// Prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. Exits 1 when any verdict, report
// byte or work counter is wrong, 2 on bad arguments. run.py builds this
// binary, is the entry point, and checks the metric names and units
// against BENCHMARK.json; README.md documents the metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mcsafe-perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --serve-bin PATH\n"
               "                        [--trace-out FILE] "
               "[--plant-wrong-expectation]\n");
  return 2;
}

void printResult(const RunResult &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  Cfg.Threads = std::min(HW, 4u);
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--plant-wrong-expectation") {
      Cfg.PlantWrongExpectation = true;
      continue;
    }
    if (!(V = Next()))
      return usage();
    if (Arg == "--workload")
      Cfg.Workload = V;
    else if (Arg == "--seed")
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      Cfg.Seconds = std::strtod(V, nullptr);
    else if (Arg == "--trace")
      Cfg.Trace = std::strcmp(V, "0") != 0;
    else if (Arg == "--work-dir")
      Cfg.WorkDir = V;
    else if (Arg == "--serve-bin")
      Cfg.ServeBin = V;
    else if (Arg == "--trace-out")
      Cfg.TraceOut = V;
    else
      return usage();
  }
  if (Cfg.Workload.empty() || Cfg.WorkDir.empty() || Cfg.ServeBin.empty() ||
      !(Cfg.Seconds > 0))
    return usage();
  std::error_code Ec;
  std::filesystem::create_directories(Cfg.WorkDir, Ec);

  RunResult R;
  if (!runWorkload(Cfg, R)) {
    std::fprintf(stderr, "unknown workload '%s'\n", Cfg.Workload.c_str());
    return 2;
  }

  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "problem: %s\n", P.c_str());
  std::fprintf(stderr, "%llu of %llu operations failed; results %s\n",
               static_cast<unsigned long long>(R.Failed),
               static_cast<unsigned long long>(R.Attempted),
               R.Correct ? "correct" : "WRONG");
  printResult(R);
  return R.Correct ? 0 : 1;
}
