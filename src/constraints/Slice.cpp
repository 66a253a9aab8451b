//===- Slice.cpp ----------------------------------------------------------===//

#include "constraints/Slice.h"

#include "constraints/Formula.h"
#include "support/Governor.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace mcsafe;

//===----------------------------------------------------------------------===//
// Connected components
//===----------------------------------------------------------------------===//

namespace {

/// Union-find with path halving over dense local indices.
uint32_t ufFind(std::vector<uint32_t> &Parent, uint32_t X) {
  while (Parent[X] != X) {
    Parent[X] = Parent[Parent[X]];
    X = Parent[X];
  }
  return X;
}

void ufUnite(std::vector<uint32_t> &Parent, uint32_t A, uint32_t B) {
  A = ufFind(Parent, A);
  B = ufFind(Parent, B);
  if (A != B)
    Parent[B] = A;
}

} // namespace

unsigned slice::partitionComponents(const std::vector<Constraint> &Atoms,
                                    std::vector<unsigned> &ComponentOf) {
  // Local variable index: sorted unique VarIds -> [0, N).
  std::vector<VarId> Vars;
  for (const Constraint &C : Atoms)
    C.collectVars(Vars);
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  auto localIndex = [&](VarId V) -> uint32_t {
    return static_cast<uint32_t>(
        std::lower_bound(Vars.begin(), Vars.end(), V) - Vars.begin());
  };

  std::vector<uint32_t> Parent(Vars.size());
  for (uint32_t I = 0; I < Parent.size(); ++I)
    Parent[I] = I;

  std::vector<VarId> Scratch;
  for (const Constraint &C : Atoms) {
    Scratch.clear();
    C.collectVars(Scratch);
    for (size_t I = 1; I < Scratch.size(); ++I)
      ufUnite(Parent, localIndex(Scratch[0]), localIndex(Scratch[I]));
  }

  // Number components in order of their first atom, so the numbering (and
  // hence the solve order) is a pure function of the conjunction.
  ComponentOf.assign(Atoms.size(), 0);
  std::vector<unsigned> RootToComp(Vars.size() + 1, UINT32_MAX);
  unsigned NumComponents = 0;
  for (size_t I = 0; I < Atoms.size(); ++I) {
    Scratch.clear();
    Atoms[I].collectVars(Scratch);
    // Variable-free atoms each get a singleton component (the tier
    // stack's constant fold decides them); they never reach here from
    // the solver path, which filters constants first.
    uint32_t Root = Scratch.empty()
                        ? static_cast<uint32_t>(Vars.size())
                        : ufFind(Parent, localIndex(Scratch[0]));
    unsigned Comp;
    if (Root == Vars.size()) {
      Comp = NumComponents++;
    } else if (RootToComp[Root] != UINT32_MAX) {
      Comp = RootToComp[Root];
    } else {
      Comp = RootToComp[Root] = NumComponents++;
    }
    ComponentOf[I] = Comp;
  }
  return NumComponents;
}

//===----------------------------------------------------------------------===//
// The slicing solver
//===----------------------------------------------------------------------===//

SatResult SliceSolver::solve(const FormulaRef &DF,
                             const std::vector<Constraint> &Conjuncts,
                             const QueryBudget &B,
                             support::ResourceGovernor *Gov) {
  ++Counters.DisjunctQueries;

  // Whole-disjunct memo: a disjunct recurring across queries (negated
  // obligations share their context conjuncts) skips partitioning and
  // every per-component lookup. Keyed by the canonical conjunction the
  // prover interned for dedup, under the enclosing query's own
  // SlicingQuery budget — sound to share with whole-query
  // entries, because a whole query that *is* a canonical conjunction of
  // atoms (its DNF is itself) has exactly this disjunct's semantics.
  uint64_t DisjunctKey = ProverCache::keyFor(DF, B);
  if (std::optional<SatOutcome> Hit = Cache.lookupHashed(DisjunctKey, DF, B)) {
    ++Counters.CacheHits;
    if (Hit->UsedOmega)
      ++Counters.OmegaAvoided;
    return Hit->Result;
  }
  ++Counters.CacheMisses;

  SatResult Result = solveUncached(Conjuncts, B, Gov);
  if (!(Gov && Gov->exhausted())) {
    SatOutcome Outcome;
    Outcome.Result = Result;
    // UsedOmega propagates up from the component level so a future hit
    // on this entry counts the Omega runs it actually saves.
    Outcome.UsedOmega = DisjunctUsedOmega;
    Cache.insertHashed(DisjunctKey, DF, B, Outcome);
  }
  return Result;
}

SatResult SliceSolver::solveUncached(const std::vector<Constraint> &Conjuncts,
                                     const QueryBudget &B,
                                     support::ResourceGovernor *Gov) {
  // Tracks whether any fresh solve below consulted the Omega tier; read
  // by solve() when it stores the whole-disjunct memo entry.
  DisjunctUsedOmega = false;

  // One scan classifies the conjunction. Poisoned atoms escape
  // decomposition entirely: the tiered solver routes such conjunctions to
  // Omega, which reports them as Unknown. They are rare, never worth a
  // special-cased component path. Constant atoms need filtering, which
  // takes the copying slow path below; the common conjunction (every
  // atom carries a variable) partitions in place with no copy at all.
  bool HasConstant = false;
  for (const Constraint &C : Conjuncts) {
    if (C.isPoisoned())
      return satisfiableTracked(Conjuncts);
    if (C.constantTruth())
      HasConstant = true;
  }

  std::vector<Constraint> Work;
  const std::vector<Constraint> *Sys = &Conjuncts;
  if (HasConstant) {
    Work.reserve(Conjuncts.size());
    for (const Constraint &C : Conjuncts) {
      if (std::optional<bool> Truth = C.constantTruth()) {
        if (!*Truth)
          return SatResult::Unsat;
        continue;
      }
      Work.push_back(C);
    }
    if (Work.empty())
      return SatResult::Sat;
    Sys = &Work;
  }

  std::vector<unsigned> ComponentOf;
  unsigned NumComponents = slice::partitionComponents(*Sys, ComponentOf);
  Counters.Components += NumComponents;
  if (NumComponents > 1)
    ++Counters.MultiComponent;

  // Single-component fast path: the whole-disjunct memo entry solve() is
  // about to write covers exactly this conjunction, so a component-level
  // entry (usually for the very same formula) would only double the
  // cache traffic. Solve it directly.
  if (NumComponents == 1)
    return satisfiableTracked(*Sys);

  // sat(conjunction) over disjoint variable sets = conjunction of the
  // per-component sats. Unsat anywhere refutes the whole query (no need
  // to solve the rest); Unknown anywhere, with no Unsat found, means a
  // component might still be unsatisfiable — the query degrades to
  // Unknown rather than claiming Sat.
  bool SawUnknown = false;
  std::vector<Constraint> Atoms;
  for (unsigned Comp = 0; Comp < NumComponents; ++Comp) {
    Atoms.clear();
    for (size_t I = 0; I < Sys->size(); ++I)
      if (ComponentOf[I] == Comp)
        Atoms.push_back((*Sys)[I]);
    SatResult R = solveComponent(Atoms, B, Gov);
    if (R == SatResult::Unsat)
      return SatResult::Unsat;
    if (R == SatResult::Unknown)
      SawUnknown = true;
  }
  return SawUnknown ? SatResult::Unknown : SatResult::Sat;
}

SatResult
SliceSolver::satisfiableTracked(const std::vector<Constraint> &Atoms) {
  const TieredSolver::TierStats &T = Solver.tierStats();
  uint64_t OmegaBefore = T.OmegaHits + T.OmegaMisses;
  SatResult R = Solver.isSatisfiable(Atoms);
  if (T.OmegaHits + T.OmegaMisses != OmegaBefore)
    DisjunctUsedOmega = true;
  return R;
}

SatResult SliceSolver::solveComponent(const std::vector<Constraint> &Atoms,
                                      const QueryBudget &B,
                                      support::ResourceGovernor *Gov) {
  // Canonical component formula: atoms sorted by interned id, so the memo
  // key — and the atom order the fresh solve below runs under — is a pure
  // function of the component's atom set. Two queries producing the same
  // component in different conjunct orders must compute (and cache) the
  // same outcome, or a warm hit could change a verdict.
  std::vector<FormulaRef> Refs;
  Refs.reserve(Atoms.size());
  for (const Constraint &C : Atoms)
    Refs.push_back(Formula::atom(C));
  std::sort(Refs.begin(), Refs.end(),
            [](const FormulaRef &A, const FormulaRef &B) {
              return A->id() < B->id();
            });
  FormulaRef F = Formula::conj(std::move(Refs));
  if (F->isTrue())
    return SatResult::Sat;
  if (F->isFalse())
    return SatResult::Unsat;

  QueryBudget CompBudget = B;
  CompBudget.SolverSlicing = QueryBudget::SlicingComponent;
  uint64_t Key = ProverCache::keyFor(F, CompBudget);
  if (std::optional<SatOutcome> Hit = Cache.lookupHashed(Key, F, CompBudget)) {
    ++Counters.CacheHits;
    if (Hit->UsedOmega)
      ++Counters.OmegaAvoided;
    return Hit->Result;
  }
  ++Counters.CacheMisses;

  std::vector<Constraint> Canon;
  if (F->kind() == FormulaKind::Atom) {
    Canon.push_back(F->constraint());
  } else {
    Canon.reserve(F->children().size());
    for (const FormulaRef &C : F->children())
      Canon.push_back(C->constraint());
  }
  const TieredSolver::TierStats &T = Solver.tierStats();
  uint64_t OmegaBefore = T.OmegaHits + T.OmegaMisses;
  SatResult R = Solver.isSatisfiable(Canon);

  SatOutcome Outcome;
  Outcome.Result = R;
  Outcome.UsedOmega = (T.OmegaHits + T.OmegaMisses) != OmegaBefore;
  if (Outcome.UsedOmega)
    DisjunctUsedOmega = true;
  // A governor-interrupted Unknown depends on when the deadline fired,
  // not on (formula, budget); mirror the prover's rule and keep it out
  // of the memo.
  if (!(Gov && Gov->exhausted()))
    Cache.insertHashed(Key, F, CompBudget, Outcome);
  return R;
}
