//===- ParallelCheck.cpp --------------------------------------------------===//

#include "checker/ParallelCheck.h"

#include "constraints/Var.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <chrono>
#include <sstream>

using namespace mcsafe;
using namespace mcsafe::checker;

ParallelCheckResult checker::checkJobs(const std::vector<CheckJob> &Jobs,
                                       const ParallelCheckOptions &Opts) {
  ParallelCheckResult Result;
  Result.Programs.resize(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I)
    Result.Programs[I].Name = Jobs[I].Name;

  unsigned NJobs = Opts.Jobs ? Opts.Jobs : support::ThreadPool::hardwareConcurrency();
  if (NJobs == 0)
    NJobs = 1;
  Result.JobsUsed = NJobs;

  std::shared_ptr<ProverCache> Shared;
  if (Opts.ShareProverCache) {
    ProverCache::Config C;
    C.MaxEntries = Opts.SharedCacheMaxEntries;
    Shared = std::make_shared<ProverCache>(C);
  }

  support::TraceSpan BatchSpan("parallel/batch");
  auto Start = std::chrono::steady_clock::now();

  std::unique_ptr<support::ThreadPool> Pool;
  if (NJobs > 1)
    Pool = std::make_unique<support::ThreadPool>(NJobs);

  auto RunOne = [&](size_t I) {
    CheckReport &Rep = Result.Programs[I].Report;
    // Pool tasks that throw would std::terminate the process, and one
    // job's failure must never take down its batch-mates: everything a
    // job can raise lands in its own report.
    try {
      // A batch-level governor that already tripped (shared deadline,
      // cooperative cancel) skips the remaining jobs outright, each with
      // a structured failure instead of silence.
      if (support::ResourceGovernor *BGov = Opts.Check.Governor;
          BGov && BGov->exhausted()) {
        Rep.Safe = false;
        Rep.Verdict = CheckVerdict::Unknown;
        Rep.Failures.push_back(
            {CheckPhase::Driver,
             BGov->exhaustedKind() == support::BudgetKind::Cancelled
                 ? FailureKind::Cancelled
                 : FailureKind::ResourceExhausted,
             std::nullopt, "check skipped: " + BGov->reason()});
        return;
      }
      support::TraceSpan JobSpan("parallel/job", Jobs[I].Name);
      // A private namespace makes this check's variable-id and fresh-name
      // sequences a pure function of its own inputs — the determinism
      // anchor for byte-identical reports under any scheduling.
      VarNamespace NS;
      SafetyChecker::Options O = Opts.Check;
      O.SharedProverCache = Shared;
      O.Global.Pool = (Opts.VcParallelism && Pool) ? Pool.get() : nullptr;
      O.Metrics = Opts.Metrics;
      O.MetricScope = "program/" + Jobs[I].Name;
      SafetyChecker Checker(O);
      Rep = Checker.checkSource(Jobs[I].Asm, Jobs[I].Policy);
    } catch (const std::exception &E) {
      Rep.Safe = false;
      Rep.Verdict = CheckVerdict::InternalError;
      Rep.Failures.push_back({CheckPhase::Driver, FailureKind::InternalError,
                              std::nullopt,
                              std::string("unhandled exception: ") +
                                  E.what()});
    } catch (...) {
      Rep.Safe = false;
      Rep.Verdict = CheckVerdict::InternalError;
      Rep.Failures.push_back({CheckPhase::Driver, FailureKind::InternalError,
                              std::nullopt,
                              "unhandled non-standard exception"});
    }
  };

  if (Pool) {
    support::TaskGroup Group(Pool.get());
    for (size_t I = 0; I < Jobs.size(); ++I)
      Group.spawn([&RunOne, I] { RunOne(I); });
    Group.wait();
  } else {
    for (size_t I = 0; I < Jobs.size(); ++I)
      RunOne(I);
  }

  if (support::MetricsRegistry *Reg = Opts.Metrics) {
    Reg->counter("parallel/wall_us")
        .inc(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Start)
                .count()));
    Reg->gauge("parallel/jobs").set(NJobs);
    if (Shared) {
      // Shared-cache counters are published exactly once, from the cache
      // itself. The cache admits only base keys, so these count
      // certificate revalidations; a cold batch reads 0.
      ProverCache::Stats CS = Shared->stats();
      Reg->counter("cache/shared/hits").inc(CS.Hits);
      Reg->counter("cache/shared/misses").inc(CS.Misses);
      // The whole-query/component split of the aggregates above (Hits ==
      // QueryHits + ComponentHits, same for misses).
      Reg->counter("cache/shared/query_hits").inc(CS.QueryHits);
      Reg->counter("cache/shared/query_misses").inc(CS.QueryMisses);
      Reg->counter("cache/shared/component_hits").inc(CS.ComponentHits);
      Reg->counter("cache/shared/component_misses").inc(CS.ComponentMisses);
      Reg->counter("cache/shared/insertions").inc(CS.Insertions);
      Reg->counter("cache/shared/evictions").inc(CS.Evictions);
      Reg->gauge("cache/shared/entries").set(
          static_cast<int64_t>(CS.Entries));
    }
    if (Pool) {
      support::ThreadPool::Stats PS = Pool->stats();
      Reg->counter("pool/submitted").inc(PS.Submitted);
      Reg->counter("pool/executed").inc(PS.Executed);
      Reg->counter("pool/steals").inc(PS.Steals);
      Reg->counter("pool/idle_us").inc(PS.IdleUs);
      Reg->gauge("pool/workers").set(Pool->workerCount());
    }
  }
  return Result;
}

std::string checker::renderParallelReport(const ParallelCheckResult &R) {
  std::ostringstream OS;
  for (const ParallelCheckResult::Program &P : R.Programs) {
    const CheckReport &Rep = P.Report;
    OS << "== " << P.Name << " ==\n";
    OS << "verdict: " << verdictName(Rep.Verdict) << "\n";
    std::string Diags = Rep.Diags.str();
    if (!Diags.empty()) {
      OS << Diags;
      if (Diags.back() != '\n')
        OS << "\n";
    }
    // Structured failures, in the order encountered. For step-budget and
    // malformed-input failures these are deterministic; wall-clock
    // deadline runs are inherently not, and are never byte-compared.
    for (const CheckFailure &F : Rep.Failures)
      OS << "failure: " << F.str() << "\n";
    if (!Rep.InputsOk)
      continue;
    // Deterministic work counters only — no wall-clock values, and none
    // of the series that vary with cache warmth or scheduling (cache
    // hits, budget exhaustions, speculative queries, Omega internals).
    const ProgramCharacteristics &C = Rep.Chars;
    OS << "insts: " << C.Instructions << "  branches: " << C.Branches
       << "  loops: " << C.Loops << " (inner " << C.InnerLoops << ")"
       << "  calls: " << C.Calls << " (trusted " << C.TrustedCalls
       << ")\n";
    if (Rep.LintRejected) {
      OS << "lint: rejected\n";
      continue;
    }
    OS << "typestate visits: " << Rep.TypestateNodeVisits
       << "  local checks: " << Rep.LocalChecks << " (violations "
       << Rep.LocalViolations << ")\n";
    OS << "global: conditions " << C.GlobalConditions << "  proved "
       << Rep.Global.ObligationsProved << "  failed "
       << Rep.Global.ObligationsFailed << "  quick "
       << Rep.Global.QuickDischarges << "\n";
    OS << "loops: invariants " << Rep.Global.InvariantsSynthesized
       << " (reused " << Rep.Global.InvariantReuses << ")  iterations "
       << Rep.Global.IterationsRun << "  generalizations "
       << Rep.Global.GeneralizationsTried << "\n";
    OS << "prover: validity " << Rep.ProverStats.ValidityQueries
       << "  sat " << Rep.ProverStats.SatQueries << "\n";
  }
  return OS.str();
}
