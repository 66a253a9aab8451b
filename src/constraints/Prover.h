//===- Prover.h - Validity checking over Presburger formulas ----*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The theorem prover the global-verification phase invokes — our stand-in
/// for the Omega Library. Validity of a formula F (free variables
/// implicitly universally quantified) is decided by testing the
/// satisfiability of not(F) over the DNF of not(F). Every disjunct is
/// sliced into variable-disjoint components (Slice.h), and each component
/// goes through the pre-solver tiers in front of the Omega test
/// (PreSolve.h). That is the one production path; the raw OmegaTest and a
/// bare TieredSolver remain as the tests' reference oracles.
///
/// Results are tri-state: Proved / NotProved / Unknown. Unknown arises
/// from budget exhaustion, arithmetic overflow, or a Forall that had to be
/// approximated during satisfiability checking; the safety checker treats
/// Unknown as "not proved", which is sound.
///
/// The prover caches query results keyed by structural formula identity
/// plus the exact resource budgets the query ran under — the caching
/// enhancement sketched in Section 5.2.3 of the paper ("represent
/// formulas in a canonical form and use previous results whenever
/// possible"). The cache (see ProverCache.h) is bounded, and can be
/// shared between provers: the parallel verification engine gives every
/// worker its own Prover over one shared cache, which is sound because
/// outcomes are pure functions of formula structure and budget.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_PROVER_H
#define MCSAFE_CONSTRAINTS_PROVER_H

#include "constraints/Formula.h"
#include "constraints/Normalize.h"
#include "constraints/OmegaTest.h"
#include "constraints/PreSolve.h"
#include "constraints/ProverCache.h"
#include "constraints/Slice.h"

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

namespace mcsafe {

/// Verdict of a validity query.
enum class ProverResult : uint8_t {
  Proved,    ///< The formula is valid.
  NotProved, ///< A countermodel exists (the formula is not valid).
  Unknown,   ///< Resources exhausted or approximation interfered.
};

/// One satisfiability query as the prover answered it: the formula, the
/// exact budget it ran under, and the outcome. A check records these as
/// its certificate witnesses (checker/CertStore.h); re-verification
/// re-discharges the Unsat ones — the queries a Safe verdict rests on —
/// through a fresh prover instead of re-running invariant synthesis.
struct QueryRecord {
  FormulaRef F;
  QueryBudget Budget;
  SatOutcome Outcome;
};

/// Validity / satisfiability oracle over formulas.
class Prover {
public:
  struct Options {
    OmegaTest::Options Omega;
    size_t DnfMaxDisjuncts = 1024;
    size_t DnfMaxAtoms = 512;
    bool EnableCache = true;
    /// Capacity of a privately-owned cache (ignored when a shared cache
    /// is supplied).
    size_t CacheMaxEntries = size_t(1) << 18;
    /// Optional per-check governor (null = unlimited). Propagated to the
    /// Omega test unless Omega.Governor is already set.
    support::ResourceGovernor *Governor = nullptr;
    /// Whether queries charge the governor's prover-step budget. The
    /// sequential verification path charges (making step exhaustion a
    /// deterministic function of the inputs); speculative prefetch
    /// workers only poll, so their scheduling cannot perturb the charge
    /// sequence.
    bool ChargeGovernorSteps = true;
    /// Whether the congruence tier runs (disabled together with the
    /// known-bits domain by --no-knownbits). Part of the cache key, via
    /// the SolverTiers budget field.
    bool EnableCongruence = true;
  };

  struct Stats {
    uint64_t ValidityQueries = 0;
    uint64_t SatQueries = 0;
    uint64_t CacheHits = 0;
    /// Evictions of a privately-owned cache. Always 0 when the cache is
    /// shared: eviction is a property of the cache, not of any one
    /// sharer, so batch drivers read it once from ProverCache::stats()
    /// instead of summing it per worker.
    uint64_t CacheEvictions = 0;
    /// Sat computations that ended Unknown because a resource budget ran
    /// out (DNF disjunct/atom limits, Omega step or modulus limits).
    uint64_t BudgetExhaustions = 0;
    /// Per-tier disjunct outcomes, copied from TieredSolver::TierStats
    /// (see PreSolve.h): how many disjunct queries each solving tier
    /// answered (hits) or declined/failed (misses).
    TieredSolver::TierStats Tiers;
    /// Slicing-layer counters, copied from SliceSolver (see Slice.h):
    /// components formed, per-component memo hits, Omega runs avoided.
    SliceStats Slice;
  };

  Prover() : Prover(Options()) {}
  explicit Prover(Options Opts) : Prover(Opts, nullptr) {}
  /// A prover over a shared result cache. All provers sharing one cache
  /// may use different budgets — entries are budget-keyed.
  Prover(Options Opts, std::shared_ptr<ProverCache> SharedCache);

  /// Is the conjunction-closure of \p F satisfiable (free variables
  /// existential)?
  SatResult checkSat(const FormulaRef &F);

  /// Is \p F valid (free variables universal)?
  ProverResult checkValid(const FormulaRef &F);

  /// Does \p P imply \p Q?
  ProverResult checkImplies(const FormulaRef &P, const FormulaRef &Q) {
    return checkValid(Formula::implies(P, Q));
  }

  Stats stats() const;
  const OmegaTest::Stats &omegaStats() const { return Solver.omegaStats(); }
  const TieredSolver::TierStats &tierStats() const {
    return Solver.tierStats();
  }
  void resetStats() {
    Counters = Stats();
    Solver.resetStats();
    Slicer.resetStats();
  }
  /// Clears the attached cache (the shared one, if sharing).
  void clearCache() {
    if (Cache)
      Cache->clear();
  }

  /// Starts (or stops, with null) appending every answered sat query to
  /// \p T, deduplicated by formula identity. Outcomes are recorded for
  /// cache hits and fresh computations alike, so the transcript is the
  /// same whatever the cache was warmed with.
  void setTranscript(std::vector<QueryRecord> *T) {
    Transcript = T;
    TranscriptSeen.clear();
  }

  const Options &options() const { return Opts; }
  /// The attached cache; null when caching is disabled. Hand this to
  /// another Prover to share results.
  std::shared_ptr<ProverCache> cacheHandle() const { return Cache; }
  /// The budgets queries of this prover run under (the cache key part).
  QueryBudget budget() const;

private:
  SatOutcome checkSatInternal(const FormulaRef &F);
  void recordQuery(const FormulaRef &F, const QueryBudget &B,
                   const SatOutcome &Outcome);

  Options Opts;
  TieredSolver Solver;
  SliceSolver Slicer;
  Stats Counters;
  std::shared_ptr<ProverCache> Cache;
  /// True when this prover created Cache itself (nobody else shares it).
  bool OwnsCache = false;
  /// Certificate witness sink; null when not recording.
  std::vector<QueryRecord> *Transcript = nullptr;
  /// Formula ids already recorded (one witness per distinct query).
  std::unordered_set<uint32_t> TranscriptSeen;
};

/// Visits every slicing counter of \p S as (metric name, value). This is
/// the one place the prover/slice/* metric names are spelled: per-check
/// metrics, the daemon's running totals, and the CLI's zero-valued
/// pre-registration all go through it.
template <typename Fn>
void forEachSliceCounter(const Prover::Stats &S, Fn &&Visit) {
  const SliceStats &L = S.Slice;
  Visit("prover/slice/queries", L.DisjunctQueries);
  Visit("prover/slice/disjuncts_deduped", L.DisjunctsDeduped);
  Visit("prover/slice/components", L.Components);
  Visit("prover/slice/multi_component", L.MultiComponent);
  Visit("prover/slice/cache_hits", L.CacheHits);
  Visit("prover/slice/cache_misses", L.CacheMisses);
  Visit("prover/slice/omega_avoided", L.OmegaAvoided);
}

} // namespace mcsafe

#endif // MCSAFE_CONSTRAINTS_PROVER_H
