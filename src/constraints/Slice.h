//===- Slice.h - Query slicing and component memoization --------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Connected-component decomposition of satisfiability queries — the
/// slicing layer between the prover and the tiered solver.
///
/// The conjunctions machine code generates mix one or two genuinely hard
/// multi-variable atoms with a crowd of easy single-variable bound checks;
/// solved whole, the hard atom drags every easy one along with it into the
/// Omega test. But satisfiability over the integers factors exactly across
/// variable-disjoint sub-conjunctions:
///
///   sat(C1 and C2) == sat(C1) and sat(C2)   when vars(C1) ∩ vars(C2) = ∅
///
/// (any pair of models glues into one — the conjuncts constrain disjoint
/// coordinates). So the slicer partitions a conjunction's atoms into
/// connected components by shared free variables (union-find over interned
/// variable ids), solves each component independently through the existing
/// tier stack, and combines: Unsat if any component is Unsat; Sat iff all
/// are Sat; Unknown in any component (with no Unsat found) degrades the
/// whole query to Unknown — a component the solver gave up on might be
/// unsatisfiable, so neither Sat nor Unsat can be claimed.
///
/// Decomposition compounds with the pre-solver tiers: tier applicability
/// is an all-atoms property (interval needs every atom single-variable,
/// DBM needs every atom a unit difference), so a mixed conjunction that
/// falls through to Omega whole often splits into components that each fit
/// a cheap tier.
///
/// Memoization happens at two levels. Each component's verdict is cached
/// in the shared ProverCache keyed by the component's canonical interned
/// formula (atoms sorted by interned id) plus the query budget, with
/// QueryBudget::SolverSlicing = SlicingComponent keeping component entries
/// apart from whole-query entries. And each whole disjunct's verdict is
/// cached under its canonical conjunction (the same interned formula the
/// prover's DNF-level dedup computes anyway), so a disjunct recurring
/// across queries skips partitioning and every component lookup
/// outright. Disjunct entries share the SlicingQuery tag with
/// whole-query entries — sound, because a whole query that *is* a
/// canonical conjunction of atoms has exactly the disjunct's semantics
/// (its DNF is itself). The recurring bound-check components machine code
/// generates hit warm across VCs, procedures, corpus runs, and
/// mcsafe-serve's process-lifetime cache. Components are solved in
/// canonical (sorted) atom order so every memoized outcome is a pure
/// function of (formula, budget) — never of which enclosing query
/// happened to compute it first.
///
/// Equalities are left to the solvers below: the Omega test and the
/// congruence tier run their own unit-pivot elimination.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_SLICE_H
#define MCSAFE_CONSTRAINTS_SLICE_H

#include "constraints/PreSolve.h"
#include "constraints/ProverCache.h"

#include <cstdint>
#include <vector>

namespace mcsafe {

namespace support {
class ResourceGovernor;
}

/// Counters of the slicing layer, reported through Prover::Stats and the
/// prover/slice/* metrics.
struct SliceStats {
  /// Disjunct conjunctions routed through the slicer.
  uint64_t DisjunctQueries = 0;
  /// DNF disjuncts the prover dropped as duplicates (by interned id).
  uint64_t DisjunctsDeduped = 0;
  /// Connected components formed across all sliced queries.
  uint64_t Components = 0;
  /// Queries that split into two or more components.
  uint64_t MultiComponent = 0;
  /// Memo hits / misses in the ProverCache, summed over both levels
  /// (whole-disjunct entries and per-component entries).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Memo hits whose original (fresh) solve had consulted the Omega tier:
  /// each one is an Omega run the cache saved.
  uint64_t OmegaAvoided = 0;
};

namespace slice {

/// Partitions \p Atoms into connected components by shared variables
/// (union-find over interned variable ids). \p ComponentOf receives one
/// component index per atom; components are numbered deterministically in
/// order of their first atom. Variable-free atoms each form a singleton
/// component. Returns the number of components.
unsigned partitionComponents(const std::vector<Constraint> &Atoms,
                             std::vector<unsigned> &ComponentOf);

} // namespace slice

/// The slicing layer the prover routes disjunct queries through. Holds a
/// reference to the prover's tiered solver and (optionally) its result
/// cache; stateless apart from counters.
class SliceSolver {
public:
  SliceSolver(TieredSolver &Solver, ProverCache *Cache)
      : Solver(Solver), Cache(Cache) {}

  /// Re-points the memo table (the prover finishes cache setup after
  /// construction). Null disables memoization but not decomposition.
  void setCache(ProverCache *C) { Cache = C; }

  /// Decides satisfiability of the conjunction of \p Conjuncts via
  /// component decomposition with memoization. \p DF is the disjunct's
  /// canonical interned conjunction (atoms sorted by id — the formula the
  /// prover already interns for disjunct dedup), which keys the
  /// whole-disjunct memo entry. \p B is the enclosing query's budget
  /// (component entries re-key it with SolverSlicing = SlicingComponent).
  /// Outcomes computed while \p Gov reports exhaustion are not memoized —
  /// they are not pure functions of (formula, budget).
  SatResult solve(const FormulaRef &DF,
                  const std::vector<Constraint> &Conjuncts,
                  const QueryBudget &B, support::ResourceGovernor *Gov);

  /// Entry point for a query whose DNF is a single disjunct: the prover's
  /// own whole-query cache entry (keyed by the original formula) already
  /// memoizes this exact query, so a disjunct-level entry would mostly
  /// duplicate it — and skipping it saves interning and sorting the
  /// disjunct's atoms on the hot path. Decomposes and solves directly;
  /// components still memoize individually.
  SatResult solveSingleDisjunct(const std::vector<Constraint> &Conjuncts,
                                const QueryBudget &B,
                                support::ResourceGovernor *Gov) {
    ++Counters.DisjunctQueries;
    return solveUncached(Conjuncts, B, Gov);
  }

  const SliceStats &stats() const { return Counters; }
  void resetStats() { Counters = SliceStats(); }
  /// The prover's DNF-level disjunct dedup reports drops here so all
  /// slicing counters live in one place.
  void noteDedupedDisjunct() { ++Counters.DisjunctsDeduped; }

private:
  SatResult solveUncached(const std::vector<Constraint> &Conjuncts,
                          const QueryBudget &B,
                          support::ResourceGovernor *Gov);
  SatResult solveComponent(const std::vector<Constraint> &Atoms,
                           const QueryBudget &B,
                           support::ResourceGovernor *Gov);
  /// Solver.isSatisfiable with Omega-consultation tracking (sets
  /// DisjunctUsedOmega on any Omega tier consult).
  SatResult satisfiableTracked(const std::vector<Constraint> &Atoms);

  TieredSolver &Solver;
  ProverCache *Cache;
  SliceStats Counters;
  /// Whether the disjunct currently being solved consulted the Omega
  /// tier live (component cache hits don't count — their Omega run was
  /// already avoided). Valid only during solve().
  bool DisjunctUsedOmega = false;
};

} // namespace mcsafe

#endif // MCSAFE_CONSTRAINTS_SLICE_H
