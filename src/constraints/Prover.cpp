//===- Prover.cpp ---------------------------------------------------------===//

#include "constraints/Prover.h"
#include "support/FaultInjection.h"
#include "support/Governor.h"
#include "support/Trace.h"

using namespace mcsafe;

namespace {
Prover::Options propagateGovernor(Prover::Options O) {
  if (O.Governor && !O.Omega.Governor)
    O.Omega.Governor = O.Governor;
  return O;
}

TieredSolver::Options solverOptions(const Prover::Options &O) {
  TieredSolver::Options S;
  S.Omega = O.Omega;
  S.EnableCongruence = O.EnableCongruence;
  return S;
}
} // namespace

// The slicer memoizes per-component verdicts in the same cache the
// whole-query results live in (budget-tagged apart). A shared cache bound
// to this thread's formula generation is used as is; one that outlives the
// generation (a batch's or a daemon's, bound to the base) would admit only
// base keys, so it backs a private cache instead of replacing it.
Prover::Prover(Options Opts, std::shared_ptr<ProverCache> SharedCache)
    : Opts(propagateGovernor(Opts)), Solver(solverOptions(this->Opts)),
      OwnsCache(!SharedCache || SharedCache->generation() !=
                                    FormulaGeneration::currentSerial()),
      Cache(OwnsCache ? std::make_shared<ProverCache>(
                            ProverCache::Config{Opts.CacheMaxEntries},
                            std::move(SharedCache))
                      : std::move(SharedCache)),
      Slicer(Solver, *Cache) {}

QueryBudget Prover::budget() const {
  QueryBudget B;
  B.DnfMaxDisjuncts = Opts.DnfMaxDisjuncts;
  B.DnfMaxAtoms = Opts.DnfMaxAtoms;
  B.OmegaMaxSteps = Opts.Omega.MaxSteps;
  B.OmegaMaxNdivModulus = Opts.Omega.MaxNdivModulus;
  B.SolverTiers = Opts.EnableCongruence ? QueryBudget::TiersWithCongruence
                                        : QueryBudget::TiersNoCongruence;
  return B;
}

Prover::Stats Prover::stats() const {
  Stats S = Counters;
  S.Tiers = Solver.tierStats();
  S.Slice = Slicer.stats();
  // A shared cache's evictions belong to the cache, not to this prover:
  // reporting them here would let a batch summary over N workers count
  // each eviction N times. The batch driver reads ProverCache::stats()
  // once instead.
  if (OwnsCache)
    S.CacheEvictions = Cache->stats().Evictions;
  return S;
}

SatOutcome Prover::checkSatInternal(const FormulaRef &F) {
  ++Counters.SatQueries;
  // The step budget is charged per query, before the trivial-formula and
  // cache shortcuts: the charge count is then a pure function of the
  // query sequence, independent of cache warmth, which keeps step-budget
  // exhaustion byte-deterministic across --jobs.
  if (support::ResourceGovernor *Gov = Opts.Governor) {
    bool Ok = Opts.ChargeGovernorSteps ? Gov->chargeProverStep("prover/sat")
                                       : Gov->poll("prover/sat");
    if (!Ok) {
      ++Counters.BudgetExhaustions;
      return {SatResult::Unknown, false};
    }
  }
  // Injected prover fault: the degraded path is an uncached Unknown,
  // which the callers already treat as "not proved" (sound).
  if (support::faultPoint("prover/sat"))
    return {SatResult::Unknown, false};
  if (F->isTrue())
    return {SatResult::Sat, false};
  if (F->isFalse())
    return {SatResult::Unsat, false};

  QueryBudget B = budget();
  uint64_t Key = ProverCache::keyFor(F, B);
  // Injected cache fault: degrade to a recompute (lookup "misses").
  if (!support::faultPoint("cache/lookup")) {
    if (std::optional<SatOutcome> Hit = Cache->lookupHashed(Key, F, B)) {
      ++Counters.CacheHits;
      recordQuery(F, B, *Hit);
      return *Hit;
    }
  }

  SatOutcome Outcome{SatResult::Unsat, false};
  {
    // Fresh variables minted while answering a query (DNF quantifier
    // instantiation, Omega quotient/splinter variables) never escape it.
    // Minting them outside any active VarNamespace keeps a check's
    // deterministic name sequence independent of cache hit patterns —
    // and hence of how much speculative parallel work warmed the cache.
    VarScopeSuspend NoScope;
    support::TraceSpan Span("prover/sat");
    DnfResult Dnf = toDNF(F, Opts.DnfMaxDisjuncts, Opts.DnfMaxAtoms);
    // The DNF expansion is where prover memory blows up; charge its
    // footprint against the governor for the lifetime of the query.
    uint64_t DnfBytes = 0;
    for (const std::vector<Constraint> &D : Dnf.Disjuncts)
      DnfBytes += D.size() * sizeof(Constraint);
    support::MemoryCharge Mem(Opts.Governor, "prover/dnf", DnfBytes);
    Outcome.ApproximatedForall = Dnf.ApproximatedForall;
    if (Dnf.BudgetExceeded ||
        (Opts.Governor && Opts.Governor->exhausted())) {
      Outcome.Result = SatResult::Unknown;
    } else {
      bool SawUnknown = false;
      // Disjuncts dedup by their interned conjunction id (atoms sorted,
      // so the dedup is order-insensitive — a conjunction is the same
      // query in any atom order under canonical component solving).
      // toDNF distributes the same subtrees into many disjuncts, so
      // repeats are common.
      std::unordered_set<uint64_t> SeenDisjuncts;
      // A single-disjunct DNF (by far the common case) needs neither the
      // dedup set nor a disjunct-level memo entry: the whole-query cache
      // entry written below already memoizes exactly this query, and
      // skipping the canonical-conjunction interning keeps the slicing
      // overhead near zero when there is nothing to dedup.
      const bool SingleDisjunct = Dnf.Disjuncts.size() == 1;
      for (const std::vector<Constraint> &Disjunct : Dnf.Disjuncts) {
        SatResult R;
        if (SingleDisjunct) {
          R = Slicer.solveSingleDisjunct(Disjunct, B, Opts.Governor);
        } else {
          std::vector<FormulaRef> Refs;
          Refs.reserve(Disjunct.size());
          for (const Constraint &C : Disjunct)
            Refs.push_back(Formula::atom(C));
          std::sort(Refs.begin(), Refs.end(),
                    [](const FormulaRef &A, const FormulaRef &B) {
                      return A->id() < B->id();
                    });
          FormulaRef DF = Formula::conj(std::move(Refs));
          // The smart constructor already decides constant disjuncts:
          // False means this disjunct is unsatisfiable, True means it is
          // trivially satisfiable (all atoms constant-true).
          if (DF->isFalse())
            continue;
          if (!SeenDisjuncts.insert(DF->id()).second) {
            Slicer.noteDedupedDisjunct();
            continue;
          }
          R = DF->isTrue() ? SatResult::Sat
                           : Slicer.solve(DF, Disjunct, B, Opts.Governor);
        }
        if (R == SatResult::Sat) {
          Outcome.Result = SatResult::Sat;
          SawUnknown = false;
          break;
        }
        if (R == SatResult::Unknown)
          SawUnknown = true;
      }
      if (Outcome.Result != SatResult::Sat && SawUnknown)
        Outcome.Result = SatResult::Unknown;
    }
  }

  // Unknown from the compute path always means some resource budget ran
  // out (DNF explosion cap or an Omega step/modulus limit).
  if (Outcome.Result == SatResult::Unknown)
    ++Counters.BudgetExhaustions;

  // Caching budget-limited Unknowns is sound because the key carries the
  // budget: a query under a different budget can never see this entry.
  // But an Unknown produced because the *governor* interrupted the
  // computation is NOT a pure function of (formula, budget) — it depends
  // on when the deadline fired — so it must never enter the cache.
  if (!(Opts.Governor && Opts.Governor->exhausted()) &&
      !support::faultPoint("cache/insert"))
    Cache->insertHashed(Key, F, B, Outcome);
  recordQuery(F, B, Outcome);
  return Outcome;
}

void Prover::recordQuery(const FormulaRef &F, const QueryBudget &B,
                         const SatOutcome &Outcome) {
  if (!Transcript)
    return;
  if (TranscriptSeen.insert(F->id()).second)
    Transcript->push_back({F, B, Outcome});
}

SatResult Prover::checkSat(const FormulaRef &F) {
  return checkSatInternal(F).Result;
}

ProverResult Prover::checkValid(const FormulaRef &F) {
  ++Counters.ValidityQueries;
  SatOutcome Outcome = checkSatInternal(Formula::negate(F));
  switch (Outcome.Result) {
  case SatResult::Unsat:
    return ProverResult::Proved;
  case SatResult::Sat:
    // A spurious model is possible when a Forall inside not(F) was
    // replaced by a free variable; report Unknown rather than a definite
    // countermodel. The flag comes back from cache hits too.
    return Outcome.ApproximatedForall ? ProverResult::Unknown
                                      : ProverResult::NotProved;
  case SatResult::Unknown:
    return ProverResult::Unknown;
  }
  return ProverResult::Unknown;
}
