//===- Bench.h - Shared pieces of the corpus benchmark ----------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus benchmark measures the checker from outside: it calls the
/// library's public entry points, times them, and reads the counters the
/// library already returns. Nothing here is compiled into src/.
///
/// Every workload checks the 20 corpus::corpus() programs. Every verdict
/// is checked against the corpus's hand-written expectations, every
/// report byte against a sequential reference, and every deterministic
/// work counter against the same reference.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_PERFBENCH_BENCH_H
#define MCSAFE_PERFBENCH_BENCH_H

#include "checker/SafetyChecker.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Options of one benchmark run (see main.cpp for the flags).
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for cert stores, sockets and trace output (relative to
  /// the working directory, so socket paths stay short).
  std::string WorkDir;
  /// The mcsafe-serve binary the daemon-backed measurements start.
  std::string ServeBin;
  /// Where a traced run writes its spans (Chrome trace_event JSON).
  std::string TraceOut;
  /// Self-test: invert one program's expected verdict so the oracle
  /// must flag the run as incorrect.
  bool PlantWrongExpectation = false;
  /// Load threads: nproc, capped at 4 so runs stay comparable and small.
  unsigned Threads = 4;
};

struct MetricValue {
  double Value = 0;
  std::string Unit;
};

/// What one run prints as its last line.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, MetricValue> Metrics;
  /// Why the first 50 failed operations failed (printed to stderr).
  std::vector<std::string> Problems;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Records one failed operation. Wrong verdicts, report-byte and work
  /// counter mismatches also make the whole run incorrect.
  void fail(std::string Why, bool Wrong);
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank percentile, P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// The oracle
//===----------------------------------------------------------------------===//

/// The machine-independent work of one check. Visits, queries and
/// conditions are pure functions of the inputs. The solver-work fields
/// (tier hits, Omega consults) are too, given a private prover cache; a
/// shared cache answers some queries another check solved first.
struct WorkCounters {
  uint64_t Visits = 0;
  uint64_t ValidityQueries = 0;
  uint64_t SatQueries = 0;
  uint64_t Conditions = 0;
  uint64_t CongruenceHits = 0;
  uint64_t IntervalHits = 0;
  uint64_t DbmHits = 0;
  uint64_t OmegaHits = 0;
  uint64_t OmegaCalls = 0;

  static WorkCounters of(const mcsafe::checker::CheckReport &R);
  bool sameWork(const WorkCounters &O) const;
  bool sameSolverWork(const WorkCounters &O) const;
  std::string str() const;
};

/// Expected answers and the sequential reference every workload is
/// compared against.
class Oracle {
public:
  /// Builds the reference: each program checked once, in order, on this
  /// thread, with a fresh checker in its own variable namespace.
  Oracle(bool PlantWrongExpectation, uint64_t Seed);

  size_t size() const { return Names.size(); }
  const std::string &name(size_t I) const { return Names[I]; }
  const std::string &referenceBytes(size_t I) const { return RefBytes[I]; }
  const WorkCounters &referenceCounters(size_t I) const {
    return RefCounters[I];
  }

  /// Empty when \p R is the right answer for program \p I: the verdict
  /// matches the hand-written expectation (an unearned SAFE is always
  /// wrong), the expected violation kinds are all present, the rendered
  /// report equals the reference byte for byte, and the work counters
  /// equal the reference's — the solver-work ones only when
  /// \p PrivateCache says the check ran on a private prover cache, as
  /// the reference did. Otherwise the reason.
  std::string judge(size_t I, const mcsafe::checker::CheckReport &R,
                    bool PrivateCache) const;

  /// Problems found while building the reference itself.
  const std::vector<std::string> &referenceProblems() const {
    return RefProblems;
  }

private:
  std::vector<std::string> Names;
  std::vector<bool> ExpectSafe;
  std::vector<std::string> RefBytes;
  std::vector<WorkCounters> RefCounters;
  std::vector<std::string> RefProblems;
};

/// One program's report rendered exactly as `mcsafe-check --corpus`
/// renders it (renderParallelReport over a one-program batch).
std::string renderOne(const std::string &Name,
                      const mcsafe::checker::CheckReport &R);

/// Checks one program on this thread the way the reference does: its own
/// variable namespace and a fresh checker, with a private prover cache
/// and no certificate store unless \p Opts attaches one.
mcsafe::checker::CheckReport
checkCold(const std::string &Asm, const std::string &Policy,
          const mcsafe::checker::SafetyChecker::Options &Opts = {});

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

/// A "Vm...:" line of /proc/<pid>/status in KiB (0 when unreadable).
/// Pid 0 reads this process.
uint64_t procStatusKb(int Pid, const char *Field);

/// The interner and resident-set size after one round.
struct MemSample {
  uint64_t InternNodes = 0;
  uint64_t InternBytes = 0;
  uint64_t RssKb = 0;
};
MemSample sampleMemory();

//===----------------------------------------------------------------------===//
// Tracing (traced runs only)
//===----------------------------------------------------------------------===//

/// In-memory span recorder for traced runs. Spans carry the request id
/// of the work they belong to; writeChromeJson() emits them at exit in
/// the Chrome trace_event format.
class SpanLog {
public:
  /// Records [Start, End) of layer \p Name for request \p ReqId.
  void record(const char *Name, uint64_t ReqId, Clock::time_point Start,
              Clock::time_point End);

  /// Median span length under \p Name, microseconds (0 if none).
  double medianUs(const std::string &Name) const;

  bool writeChromeJson(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t ReqId;
    uint32_t Thread;
    double StartUs;
    double DurUs;
  };
  Clock::time_point Epoch = Clock::now();
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span around one call into a layer. A null log records nothing,
/// which is how untraced runs and rounds pay only a branch.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, uint64_t ReqId)
      : Log(Log), Name(Name), ReqId(ReqId),
        Start(Log ? Clock::now() : Clock::time_point()) {}
  ~ScopedSpan() {
    if (Log)
      Log->record(Name, ReqId, Start, Clock::now());
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  const char *Name;
  uint64_t ReqId;
  Clock::time_point Start;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Runs the named workload; fills \p Out. False for an unknown name.
bool runWorkload(const RunConfig &Cfg, RunResult &Out);

} // namespace perfbench

#endif // MCSAFE_PERFBENCH_BENCH_H
