//===- SliceTest.cpp - Query slicing unit and differential tests ----------===//
//
// The slicing layer must be a pure optimization: connected-component
// decomposition and the two-level memo may change how a satisfiability
// query is solved, never what it answers. The fuzz test at the bottom
// checks that contract over ten thousand random conjunctions against an
// unsliced reference; the unit tests above it pin down the decomposition
// on hand-built systems.
//
//===----------------------------------------------------------------------===//

#include "constraints/Slice.h"

#include "constraints/Prover.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace mcsafe;

namespace {

LinearExpr var(const char *Name) {
  return LinearExpr::variable(varId(Name));
}

//===----------------------------------------------------------------------===//
// partitionComponents
//===----------------------------------------------------------------------===//

TEST(SlicePartition, DisjointAtomsEachFormAComponent) {
  std::vector<Constraint> Atoms = {
      Constraint::ge(var("sl.a")),
      Constraint::ge(var("sl.b")),
      Constraint::divides(4, var("sl.c")),
  };
  std::vector<unsigned> Comp;
  EXPECT_EQ(slice::partitionComponents(Atoms, Comp), 3u);
  // Components are numbered in order of their first atom.
  EXPECT_EQ(Comp, (std::vector<unsigned>{0, 1, 2}));
}

TEST(SlicePartition, SharedVariableMergesAtoms) {
  // a-b and b-c chain into one component; d stands alone.
  std::vector<Constraint> Atoms = {
      Constraint::ge(var("sl.a") - var("sl.b")),
      Constraint::ge(var("sl.d")),
      Constraint::ge(var("sl.b") - var("sl.c")),
      Constraint::ge(var("sl.c").plusConstant(7)),
  };
  std::vector<unsigned> Comp;
  EXPECT_EQ(slice::partitionComponents(Atoms, Comp), 2u);
  EXPECT_EQ(Comp, (std::vector<unsigned>{0, 1, 0, 0}));
}

TEST(SlicePartition, TransitiveClosureAcrossManyAtoms) {
  // A chain v0-v1, v1-v2, ..., v5-v6 is one component no matter how the
  // atoms are ordered.
  const char *Names[] = {"sl.v0", "sl.v1", "sl.v2", "sl.v3",
                         "sl.v4", "sl.v5", "sl.v6"};
  std::vector<Constraint> Atoms;
  for (int I = 5; I >= 0; --I)
    Atoms.push_back(Constraint::ge(var(Names[I]) - var(Names[I + 1])));
  std::vector<unsigned> Comp;
  EXPECT_EQ(slice::partitionComponents(Atoms, Comp), 1u);
}

TEST(SlicePartition, VariableFreeAtomIsSingleton) {
  std::vector<Constraint> Atoms = {
      Constraint::ge(var("sl.a")),
      Constraint::ge(LinearExpr::constant(1)), // 1 >= 0, no variables.
      Constraint::ge(var("sl.a").plusConstant(3)),
  };
  std::vector<unsigned> Comp;
  EXPECT_EQ(slice::partitionComponents(Atoms, Comp), 2u);
  EXPECT_EQ(Comp, (std::vector<unsigned>{0, 1, 0}));
}

//===----------------------------------------------------------------------===//
// The slicing prover: counters and the single-component fast path
//===----------------------------------------------------------------------===//

FormulaRef conjOf(std::vector<Constraint> Atoms) {
  std::vector<FormulaRef> Refs;
  for (const Constraint &C : Atoms)
    Refs.push_back(Formula::atom(C));
  return Formula::conj(std::move(Refs));
}

TEST(SliceProver, SingleComponentTakesTheFastPath) {
  Prover P;
  // All atoms share sl.fx: one component, never counted multi-component.
  EXPECT_EQ(P.checkSat(conjOf({
                Constraint::ge(var("sl.fx")),
                Constraint::le(var("sl.fx"), LinearExpr::constant(9)),
                Constraint::divides(2, var("sl.fx")),
            })),
            SatResult::Sat);
  const SliceStats &S = P.stats().Slice;
  EXPECT_EQ(S.DisjunctQueries, 1u);
  EXPECT_EQ(S.Components, 1u);
  EXPECT_EQ(S.MultiComponent, 0u);
}

TEST(SliceProver, DisjointConjunctionSplits) {
  Prover P;
  EXPECT_EQ(P.checkSat(conjOf({
                Constraint::ge(var("sl.ga")),
                Constraint::ge(var("sl.gb").plusConstant(-4)),
                Constraint::divides(8, var("sl.gc")),
            })),
            SatResult::Sat);
  const SliceStats &S = P.stats().Slice;
  EXPECT_EQ(S.Components, 3u);
  EXPECT_EQ(S.MultiComponent, 1u);
}

TEST(SliceProver, UnsatComponentRefutesTheConjunction) {
  Prover P;
  // sl.hb is impossible; sl.ha alone is fine.
  EXPECT_EQ(P.checkSat(conjOf({
                Constraint::ge(var("sl.ha")),
                Constraint::ge(var("sl.hb").plusConstant(-5)),
                Constraint::le(var("sl.hb"), LinearExpr::constant(2)),
            })),
            SatResult::Unsat);
}

TEST(SliceProver, ComponentVerdictsHitWarmAcrossQueries) {
  Prover P;
  // Two queries sharing the component {sl.ka >= 0}: the second solves it
  // from the memo.
  EXPECT_EQ(P.checkSat(conjOf({
                Constraint::ge(var("sl.ka")),
                Constraint::ge(var("sl.kb").plusConstant(-1)),
            })),
            SatResult::Sat);
  EXPECT_EQ(P.checkSat(conjOf({
                Constraint::ge(var("sl.ka")),
                Constraint::divides(4, var("sl.kc")),
            })),
            SatResult::Sat);
  EXPECT_GE(P.stats().Slice.CacheHits, 1u);
}

//===----------------------------------------------------------------------===//
// Differential fuzz: the slicing prover agrees with unsliced solving
//===----------------------------------------------------------------------===//

/// The unsliced reference: the prover's DNF expansion, then each disjunct
/// whole through a bare TieredSolver. Sat if any disjunct is Sat;
/// otherwise Unknown if any disjunct is Unknown; otherwise Unsat.
SatResult unslicedSat(TieredSolver &Solver, const FormulaRef &F) {
  const Prover::Options O;
  DnfResult Dnf = toDNF(F, O.DnfMaxDisjuncts, O.DnfMaxAtoms);
  if (Dnf.BudgetExceeded)
    return SatResult::Unknown;
  bool SawUnknown = false;
  for (const std::vector<Constraint> &Disjunct : Dnf.Disjuncts) {
    SatResult R = Solver.isSatisfiable(Disjunct);
    if (R == SatResult::Sat)
      return SatResult::Sat;
    SawUnknown |= R == SatResult::Unknown;
  }
  return SawUnknown ? SatResult::Unknown : SatResult::Unsat;
}

/// Deterministic 64-bit LCG (Knuth constants), as in OmegaPropertyTest.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return State >> 33;
  }
  int64_t range(int64_t Lo, int64_t Hi) { // Inclusive.
    return Lo + static_cast<int64_t>(next() %
                                     static_cast<uint64_t>(Hi - Lo + 1));
  }
};

Constraint randomAtom(Lcg &Rng, const std::vector<VarId> &Pool) {
  // One or two variables per atom: single-variable atoms make components
  // split, two-variable atoms make them merge — the fuzz needs both.
  LinearExpr E = LinearExpr::constant(Rng.range(-8, 8));
  int NVars = static_cast<int>(Rng.range(1, 2));
  for (int I = 0; I < NVars; ++I) {
    int64_t C = Rng.range(-3, 3);
    if (C == 0)
      C = 1;
    E = E + LinearExpr::variable(
                Pool[static_cast<size_t>(Rng.next()) % Pool.size()])
                .scaled(C);
  }
  switch (Rng.range(0, 3)) {
  case 0:
    return Constraint::ge(E);
  case 1:
    return Constraint::eq(E);
  case 2:
    return Constraint::divides(Rng.range(2, 8), E);
  default:
    return Constraint::notDivides(Rng.range(2, 8), E);
  }
}

TEST(SliceFuzz, TenThousandConjunctionsAgreeWithUnslicedProver) {
  std::vector<VarId> Pool;
  for (const char *N : {"slf.a", "slf.b", "slf.c", "slf.d", "slf.e",
                        "slf.f"})
    Pool.push_back(varId(N));

  TieredSolver Reference;
  Prover On;

  Lcg Rng(0x51Ce5eedull);
  for (int Iter = 0; Iter < 10000; ++Iter) {
    int NAtoms = static_cast<int>(Rng.range(1, 6));
    std::vector<FormulaRef> Atoms;
    for (int I = 0; I < NAtoms; ++I)
      Atoms.push_back(Formula::atom(randomAtom(Rng, Pool)));
    FormulaRef F = Formula::conj(Atoms);
    // Every fifth formula is a disjunction of two conjunctions, so the
    // multi-disjunct path (disjunct dedup and the whole-disjunct memo)
    // is exercised too.
    if (Iter % 5 == 0) {
      std::vector<FormulaRef> Other;
      for (int I = 0, N = static_cast<int>(Rng.range(1, 3)); I < N; ++I)
        Other.push_back(Formula::atom(randomAtom(Rng, Pool)));
      F = Formula::disj2(F, Formula::conj(Other));
    }
    SatResult ROff = unslicedSat(Reference, F);
    SatResult ROn = On.checkSat(F);
    // The prover runs warm across all ten thousand queries, so this also
    // checks that memoized component verdicts never leak a wrong answer.
    ASSERT_EQ(ROff, ROn) << "iteration " << Iter;
  }
  // The runs must actually have gone through the slicer. (Not all 10k:
  // repeated formulas hit the prover's whole-query cache before ever
  // reaching it, and constant formulas short-circuit earlier still.)
  EXPECT_GE(On.stats().Slice.DisjunctQueries, 5000u);
  EXPECT_GE(On.stats().Slice.MultiComponent, 100u);
}

} // namespace
