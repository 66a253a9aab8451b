//===- PreSolve.h - Tiered satisfiability solving ---------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiered satisfiability solving: cheap, sound pre-solvers in front of the
/// full Omega test. The paper identifies the prover as the dominant cost
/// of safety checking, and the VCs machine code generates are mostly
/// single-variable bound checks and two-variable difference constraints —
/// shapes an exact integer solver is overkill for.
///
///   Tier 0  constant fold:   decide conjunctions of variable-free atoms,
///                            drop constant-true atoms for later tiers.
///   Tier 1  congruence:      alignment / divisibility systems (the atoms
///                            the known-bits domain emits): EQ and DIV
///                            atoms eliminate as an integer linear system
///                            (each d | e adds a multiplier variable),
///                            then NDIV atoms resolve by gcd / coset
///                            analysis with an exact union bound. Answers
///                            Unsat as a refutation of the EQ/DIV/NDIV
///                            subsystem even when GE atoms are present;
///                            answers Sat only when that subsystem is the
///                            whole conjunction.
///   Tier 2  interval:        exact for conjunctions where every atom
///                            mentions at most one variable; per-variable
///                            [lo, hi] intersection plus a bounded
///                            lcm-period window scan for DIV/NDIV atoms.
///   Tier 3  difference (DBM): exact for unit-coefficient difference
///                            systems (x - y + c >= 0, +/-x + c >= 0)
///                            without divisibility atoms, via Bellman-Ford
///                            negative-cycle detection. Integer-exact
///                            because difference systems are totally
///                            unimodular.
///   Tier 4  Omega test:      everything else.
///
/// Soundness: a tier either answers exactly (its applicability test
/// guarantees its answer equals the true satisfiability) or declines, in
/// which case the next tier runs. Unknown is only ever produced by the
/// Omega tier's budgets. Tiers never mint fresh variables and run in
/// bounded time, so they need no governor polling of their own; the
/// prover's uniform per-query step charge (see Prover.cpp) is what keeps
/// governor verdicts byte-deterministic across --jobs.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_PRESOLVE_H
#define MCSAFE_CONSTRAINTS_PRESOLVE_H

#include "constraints/OmegaTest.h"
#include "support/Arena.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace mcsafe {

/// The prover's satisfiability core: pre-solver tiers in front of an
/// OmegaTest. Stateless apart from counters and scratch; reusable.
class TieredSolver {
public:
  struct Options {
    OmegaTest::Options Omega;
    /// When false, the congruence tier is skipped (the known-bits
    /// --no-knownbits configuration); divisibility systems fall through
    /// to the interval window scan or Omega.
    bool EnableCongruence = true;
    /// Largest lcm-of-moduli window the interval tier scans to decide
    /// divisibility atoms; beyond it the query falls through to Omega.
    int64_t MaxCongruenceWindow = 4096;
  };

  /// Per-tier outcome counters. A "hit" is a query the tier answered
  /// definitively (for the Omega tier: Sat/Unsat rather than Unknown); a
  /// "miss" is a query the tier saw but had to pass on.
  struct TierStats {
    uint64_t CongruenceHits = 0;
    uint64_t CongruenceMisses = 0;
    uint64_t IntervalHits = 0;
    uint64_t IntervalMisses = 0;
    uint64_t DbmHits = 0;
    uint64_t DbmMisses = 0;
    uint64_t OmegaHits = 0;
    uint64_t OmegaMisses = 0;
  };

  TieredSolver() : TieredSolver(Options()) {}
  explicit TieredSolver(Options Opts)
      : Opts(Opts), Omega(Opts.Omega) {}

  /// Decides satisfiability of the conjunction of \p Conjuncts over the
  /// integers (all variables implicitly existentially quantified).
  SatResult isSatisfiable(const std::vector<Constraint> &Conjuncts);

  const TierStats &tierStats() const { return Tiers; }
  const OmegaTest::Stats &omegaStats() const { return Omega.stats(); }
  void resetStats() {
    Tiers = TierStats();
    Omega.resetStats();
  }

  const Options &options() const { return Opts; }

private:
  /// Folds variable-free atoms. Returns a definite verdict when the whole
  /// conjunction decides; otherwise fills \p Live with the remaining
  /// atoms (nullopt result). Poisoned atoms force the Omega path, which
  /// reports them as Unknown.
  std::optional<SatResult> constantFold(const std::vector<Constraint> &In,
                                        std::vector<Constraint> &Live,
                                        bool &SawPoisoned);
  /// Tier 1 (congruence). Applicable when the conjunction carries at
  /// least one DIV/NDIV atom; sound-or-declines as documented above.
  std::optional<SatResult> solveCongruences(const std::vector<Constraint> &C);
  /// Tier 2 (interval). Exact or declines (nullopt).
  std::optional<SatResult> solveIntervals(const std::vector<Constraint> &C);
  /// Tier 3 (difference bounds). Exact or declines (nullopt).
  std::optional<SatResult>
  solveDifferenceBounds(const std::vector<Constraint> &C);

  Options Opts;
  OmegaTest Omega;
  TierStats Tiers;
  /// Per-query scratch (interval tables, DBM edges); reset each query, so
  /// steady-state queries allocate nothing.
  support::Arena Scratch;
};

} // namespace mcsafe

#endif // MCSAFE_CONSTRAINTS_PRESOLVE_H
