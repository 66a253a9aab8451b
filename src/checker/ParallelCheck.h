//===- ParallelCheck.h - Corpus-level parallel verification -----*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the five-phase checker over a batch of independent programs on
/// a work-stealing thread pool. Two levels of parallelism compose:
///
///   - corpus-level: each program is checked on its own worker, inside
///     its own VarNamespace (so its variable-id and fresh-name sequences
///     depend only on its own inputs, not on scheduling, and its formula
///     nodes are freed when it ends);
///   - VC-level: each check hands the pool to phase 5, which discharges
///     independent verification conditions speculatively through the
///     check's own prover cache.
///
/// Determinism contract: verdicts and diagnostics are byte-identical for
/// any job count, including 1. Timing and cache counters naturally vary.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CHECKER_PARALLELCHECK_H
#define MCSAFE_CHECKER_PARALLELCHECK_H

#include "checker/SafetyChecker.h"
#include "constraints/ProverCache.h"

#include <string>
#include <vector>

namespace mcsafe {
namespace checker {

/// One unit of work: a program and the policy to check it against.
struct CheckJob {
  std::string Name;
  std::string Asm;
  std::string Policy;
};

struct ParallelCheckOptions {
  /// Worker count; 0 means hardware concurrency. 1 runs inline with no
  /// pool at all (the baseline the determinism tests diff against).
  unsigned Jobs = 0;
  /// Per-check options. Global.Pool and SharedProverCache are overwritten
  /// by the driver.
  SafetyChecker::Options Check;
  /// Bound on the shared formula-result cache.
  size_t SharedCacheMaxEntries = size_t(1) << 20;
  /// Back every check's private prover cache with one batch-wide cache.
  /// That cache outlives the checks, so it admits only base-generation
  /// keys (Formula.h): certificate formulas, when Check.Certs is set.
  /// Checks never share their own queries, which are all distinct (each
  /// check mints its own variables); on and off give identical hits.
  bool ShareProverCache = true;
  /// Also discharge independent VCs inside each check on the pool.
  bool VcParallelism = true;
  /// Observability sink for the whole batch. Each program publishes
  /// under "program/<name>/..."; the driver adds batch-level series:
  /// "parallel/wall_us", "parallel/jobs", "cache/shared/*" (published
  /// once — eviction counts are cache-global, not per-worker), and
  /// "pool/*" (tasks submitted/executed, steals, idle time).
  support::MetricsRegistry *Metrics = nullptr;
};

struct ParallelCheckResult {
  struct Program {
    std::string Name;
    CheckReport Report;
  };
  /// One entry per job, in input order regardless of completion order.
  std::vector<Program> Programs;
  unsigned JobsUsed = 0;
  // Wall time and cache counters live in ParallelCheckOptions::Metrics,
  // not here: everything in this struct is deterministic for a given
  // job list, independent of job count and scheduling.
};

/// Checks every job, possibly concurrently. Verdicts and diagnostics are
/// byte-identical for any Jobs value.
ParallelCheckResult checkJobs(const std::vector<CheckJob> &Jobs,
                              const ParallelCheckOptions &Opts = {});

/// Renders the full deterministic batch report — program names,
/// verdicts, diagnostics, program characteristics, and the work counters
/// that are pure functions of the inputs (typestate visits, local
/// checks, proof obligations, prover query counts), in input order.
/// Byte-identical across job counts; scheduling-dependent series (cache
/// hits, speculative queries, timings) are deliberately absent — those
/// live in the metrics registry.
std::string renderParallelReport(const ParallelCheckResult &R);

} // namespace checker
} // namespace mcsafe

#endif // MCSAFE_CHECKER_PARALLELCHECK_H
