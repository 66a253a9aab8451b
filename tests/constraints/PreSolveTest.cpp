//===- PreSolveTest.cpp - Tiered solving: exactness + differential fuzz ---===//

#include "constraints/PreSolve.h"
#include "constraints/Prover.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace mcsafe;

namespace {

LinearExpr var(const char *Name) { return LinearExpr::variable(varId(Name)); }

SatResult solveTiered(const std::vector<Constraint> &C,
                      TieredSolver::TierStats *StatsOut = nullptr) {
  TieredSolver S;
  SatResult R = S.isSatisfiable(C);
  if (StatsOut)
    *StatsOut = S.tierStats();
  return R;
}

//===----------------------------------------------------------------------===//
// Interval tier exactness.
//===----------------------------------------------------------------------===//

TEST(PreSolve, IntervalDecidesSingleVariableBounds) {
  // 0 <= x <= 10: sat, and the interval tier (not Omega) answers.
  TieredSolver::TierStats St;
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.x")),
                         Constraint::le(var("ps.x"), LinearExpr::constant(10))},
                        &St),
            SatResult::Sat);
  EXPECT_EQ(St.IntervalHits, 1u);
  EXPECT_EQ(St.OmegaHits + St.OmegaMisses, 0u);

  // x >= 5 && x <= 4: empty interval.
  EXPECT_EQ(
      solveTiered({Constraint::ge(var("ps.x").plusConstant(-5)),
                   Constraint::le(var("ps.x"), LinearExpr::constant(4))}),
      SatResult::Unsat);
}

TEST(PreSolve, IntervalHandlesScaledCoefficients) {
  // 3x >= 7  =>  x >= 3 (ceil);  3x <= 8  =>  x <= 2 (floor): unsat.
  EXPECT_EQ(solveTiered(
                {Constraint::ge(var("ps.x").scaled(3).plusConstant(-7)),
                 Constraint::le(var("ps.x").scaled(3), LinearExpr::constant(8))}),
            SatResult::Unsat);
  // But 3x >= 6 && 3x <= 8 has x = 2.
  EXPECT_EQ(solveTiered(
                {Constraint::ge(var("ps.x").scaled(3).plusConstant(-6)),
                 Constraint::le(var("ps.x").scaled(3), LinearExpr::constant(8))}),
            SatResult::Sat);
}

TEST(PreSolve, IntervalEqualityPinsAndChecksDivisibility) {
  // 2x = 5 has no integer solution.
  EXPECT_EQ(solveTiered({Constraint::eq(
                var("ps.x").scaled(2).plusConstant(-5))}),
            SatResult::Unsat);
  // 2x = 6 pins x = 3; 3 >= 4 fails.
  EXPECT_EQ(solveTiered({Constraint::eq(var("ps.x").scaled(2).plusConstant(-6)),
                         Constraint::ge(var("ps.x").plusConstant(-4))}),
            SatResult::Unsat);
}

TEST(PreSolve, IntervalCongruenceWindowScan) {
  // x in [1, 3] with 4 | x: no multiple of 4 in the window.
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.x").plusConstant(-1)),
                         Constraint::le(var("ps.x"), LinearExpr::constant(3)),
                         Constraint::divides(4, var("ps.x"))}),
            SatResult::Unsat);
  // x in [1, 4] with 4 | x: x = 4.
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.x").plusConstant(-1)),
                         Constraint::le(var("ps.x"), LinearExpr::constant(4)),
                         Constraint::divides(4, var("ps.x"))}),
            SatResult::Sat);
  // Two congruences: x ≡ 0 (mod 4) and x ≡ 0 (mod 6) => 12 | x.
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.x").plusConstant(-1)),
                         Constraint::le(var("ps.x"), LinearExpr::constant(11)),
                         Constraint::divides(4, var("ps.x")),
                         Constraint::divides(6, var("ps.x"))}),
            SatResult::Unsat);
  // Unbounded-below but bounded-above: the Hi-anchored window still
  // decides (every residue appears within one period of the top end).
  EXPECT_EQ(solveTiered({Constraint::le(var("ps.x"), LinearExpr::constant(100)),
                         Constraint::divides(7, var("ps.x").plusConstant(-3))}),
            SatResult::Sat);
  // NDIV inside a window: x in [4, 4], 4 | x, so x != 4 via NDIV(4) fails.
  EXPECT_EQ(solveTiered({Constraint::eq(var("ps.x").plusConstant(-4)),
                         Constraint::notDivides(4, var("ps.x"))}),
            SatResult::Unsat);
}

//===----------------------------------------------------------------------===//
// Congruence tier exactness.
//===----------------------------------------------------------------------===//

TEST(PreSolve, CongruenceRefutesEqualityAgainstNotDivides) {
  // x = 4 with "not 4 | x": the congruence tier substitutes the pinned
  // value into the NDIV atom and sees an identically-false residue —
  // before the interval tier even runs.
  TieredSolver::TierStats St;
  EXPECT_EQ(solveTiered({Constraint::eq(var("ps.cg_x").plusConstant(-4)),
                         Constraint::notDivides(4, var("ps.cg_x"))},
                        &St),
            SatResult::Unsat);
  EXPECT_EQ(St.CongruenceHits, 1u);
  EXPECT_EQ(St.IntervalHits, 0u);
  EXPECT_EQ(St.OmegaHits + St.OmegaMisses, 0u);
}

TEST(PreSolve, CongruenceCombinesDivisibilityOfSum) {
  // 4 | b and 4 | i force 4 | (b + i): the misaligned-sum refutation the
  // annotation phase produces for a masked base plus masked offset.
  TieredSolver::TierStats St;
  EXPECT_EQ(
      solveTiered({Constraint::divides(4, var("ps.cg_b")),
                   Constraint::divides(4, var("ps.cg_i")),
                   Constraint::notDivides(4,
                                          var("ps.cg_b") + var("ps.cg_i"))},
                  &St),
      SatResult::Unsat);
  EXPECT_EQ(St.CongruenceHits, 1u);
  EXPECT_EQ(St.OmegaHits + St.OmegaMisses, 0u);
}

TEST(PreSolve, CongruenceProvesTautologicalNotDivides) {
  // 4 | x makes x even, so "not 2 | (x + 1)" holds identically; with no
  // inequalities in sight the tier answers Sat on its own.
  TieredSolver::TierStats St;
  EXPECT_EQ(
      solveTiered({Constraint::divides(4, var("ps.cg_x")),
                   Constraint::notDivides(2,
                                          var("ps.cg_x").plusConstant(1))},
                  &St),
      SatResult::Sat);
  EXPECT_EQ(St.CongruenceHits, 1u);
  EXPECT_EQ(St.OmegaHits + St.OmegaMisses, 0u);
}

TEST(PreSolve, CongruenceRefutesUnderInequalities) {
  // Inequalities forbid a Sat answer from the congruence tier but not an
  // Unsat one: x >= 0, x = 2, 4 | x is modularly impossible.
  TieredSolver::TierStats St;
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.cg_x")),
                         Constraint::eq(var("ps.cg_x").plusConstant(-2)),
                         Constraint::divides(4, var("ps.cg_x"))},
                        &St),
            SatResult::Unsat);
  EXPECT_EQ(St.CongruenceHits, 1u);

  // ...while the satisfiable variant falls through to the interval tier.
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.cg_x")),
                         Constraint::divides(4, var("ps.cg_x"))},
                        &St),
            SatResult::Sat);
  EXPECT_EQ(St.CongruenceHits, 0u);
  EXPECT_EQ(St.CongruenceMisses, 1u);
  EXPECT_EQ(St.IntervalHits, 1u);
}

TEST(PreSolve, CongruenceDeclinesWhenDensityReachesOne) {
  // "not 2 | x" and "not 2 | (x + 1)" cover both residues mod 2 — the
  // union bound cannot witness a solution, so the tier declines and a
  // later tier must answer (the system is in fact unsatisfiable).
  TieredSolver::TierStats St;
  EXPECT_EQ(
      solveTiered({Constraint::notDivides(2, var("ps.cg_x")),
                   Constraint::notDivides(2,
                                          var("ps.cg_x").plusConstant(1))},
                  &St),
      SatResult::Unsat);
  EXPECT_EQ(St.CongruenceHits, 0u);
  EXPECT_EQ(St.CongruenceMisses, 1u);
}

TEST(PreSolve, CongruenceTierCanBeDisabled) {
  TieredSolver::Options Opts;
  Opts.EnableCongruence = false;
  TieredSolver S(Opts);
  EXPECT_EQ(
      S.isSatisfiable({Constraint::eq(var("ps.cg_x").plusConstant(-4)),
                       Constraint::notDivides(4, var("ps.cg_x"))}),
      SatResult::Unsat);
  EXPECT_EQ(S.tierStats().CongruenceHits + S.tierStats().CongruenceMisses,
            0u);
}

//===----------------------------------------------------------------------===//
// Difference-bound tier exactness.
//===----------------------------------------------------------------------===//

TEST(PreSolve, DbmDetectsNegativeCycle) {
  // x - y >= 1, y - z >= 1, z - x >= -1  =>  summing: 0 >= 1. Unsat.
  TieredSolver::TierStats St;
  EXPECT_EQ(
      solveTiered({Constraint::ge(var("ps.dx") - var("ps.dy") -
                                  LinearExpr::constant(1)),
                   Constraint::ge(var("ps.dy") - var("ps.dz") -
                                  LinearExpr::constant(1)),
                   Constraint::ge(var("ps.dz") - var("ps.dx") +
                                  LinearExpr::constant(1))},
                  &St),
      SatResult::Unsat);
  EXPECT_EQ(St.DbmHits, 1u);
  EXPECT_EQ(St.OmegaHits + St.OmegaMisses, 0u);
}

TEST(PreSolve, DbmAcceptsConsistentChain) {
  // x >= y >= z, x <= z + 5: satisfiable.
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.dx") - var("ps.dy")),
                         Constraint::ge(var("ps.dy") - var("ps.dz")),
                         Constraint::ge(var("ps.dz") - var("ps.dx") +
                                        LinearExpr::constant(5))}),
            SatResult::Sat);
}

TEST(PreSolve, DbmHandlesEqualityAndSingleVariableMix) {
  // x - y = 3 with x - y >= 4 contradicts.
  EXPECT_EQ(solveTiered({Constraint::eq(var("ps.dx") - var("ps.dy") -
                                        LinearExpr::constant(3)),
                         Constraint::ge(var("ps.dx") - var("ps.dy") -
                                        LinearExpr::constant(4))}),
            SatResult::Unsat);
  // Mixed single-variable bound: x >= 0, y - x >= 0, -y - 1 >= 0 (y <= -1).
  EXPECT_EQ(solveTiered({Constraint::ge(var("ps.dx")),
                         Constraint::ge(var("ps.dy") - var("ps.dx")),
                         Constraint::ge((-var("ps.dy")).plusConstant(-1))}),
            SatResult::Unsat);
}

TEST(PreSolve, NonTierShapesFallThroughToOmega) {
  // Pugh's 2-variable dense system: neither tier applies, Omega decides.
  LinearExpr X = var("ps.px"), Y = var("ps.py");
  TieredSolver::TierStats St;
  EXPECT_EQ(
      solveTiered(
          {Constraint::ge(X.scaled(11) + Y.scaled(13) -
                          LinearExpr::constant(27)),
           Constraint::le(X.scaled(11) + Y.scaled(13),
                          LinearExpr::constant(45)),
           Constraint::ge(X.scaled(7) - Y.scaled(9) + LinearExpr::constant(10)),
           Constraint::le(X.scaled(7) - Y.scaled(9), LinearExpr::constant(4))},
          &St),
      SatResult::Unsat);
  EXPECT_EQ(St.IntervalMisses, 1u);
  EXPECT_EQ(St.DbmMisses, 1u);
  EXPECT_EQ(St.OmegaHits, 1u);
}

TEST(PreSolve, DisabledTiersMatchReference) {
  // The raw Omega test is the tests' reference oracle. On a tier-shaped
  // system it agrees with the tier that decides, and only the reference
  // consults Omega.
  std::vector<Constraint> Sys = {
      Constraint::ge(var("ps.x")),
      Constraint::le(var("ps.x"), LinearExpr::constant(10))};
  OmegaTest Reference;
  EXPECT_EQ(Reference.isSatisfiable(Sys), SatResult::Sat);
  EXPECT_EQ(Reference.stats().Calls, 1u);
  TieredSolver::TierStats St;
  EXPECT_EQ(solveTiered(Sys, &St), SatResult::Sat);
  EXPECT_EQ(St.IntervalHits + St.DbmHits, 1u);
  EXPECT_EQ(St.OmegaHits + St.OmegaMisses, 0u);
}

//===----------------------------------------------------------------------===//
// Differential fuzzing: the tiered pipeline against the raw Omega test.
//
// The generator is biased toward the pre-solver shapes (single-variable
// bounds, unit differences, divisibility) with a tail of dense systems,
// so every tier and every decline path is exercised. Soundness bar: the
// tiered solver and the reference may differ only when one of them says
// Unknown — a definitive Sat must never meet a definitive Unsat.
//===----------------------------------------------------------------------===//

struct FuzzGen {
  std::mt19937_64 Rng{0xC5AFE5EEDULL}; // Fixed seed: reproducible stream.
  std::vector<VarId> Vars;

  FuzzGen() {
    for (int I = 0; I < 4; ++I)
      Vars.push_back(varId("ps.fz" + std::to_string(I)));
  }

  int64_t smallInt(int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  }

  LinearExpr randomExpr(int MaxVars, int64_t CoeffRange) {
    int N = int(smallInt(0, MaxVars));
    LinearExpr E = LinearExpr::constant(smallInt(-10, 10));
    for (int I = 0; I < N; ++I) {
      int64_t C = smallInt(-CoeffRange, CoeffRange);
      if (C == 0)
        C = 1;
      E = E + LinearExpr::variable(Vars[size_t(smallInt(0, 3))]).scaled(C);
    }
    return E;
  }

  Constraint randomConstraint() {
    switch (smallInt(0, 9)) {
    case 0: // Single-variable bound (interval shape).
    case 1:
      return Constraint::ge(
          LinearExpr::variable(Vars[size_t(smallInt(0, 3))])
              .scaled(smallInt(1, 3))
              .plusConstant(smallInt(-8, 8)));
    case 2: // Unit difference (DBM shape).
    case 3:
      return Constraint::ge(LinearExpr::variable(Vars[size_t(smallInt(0, 3))]) -
                            LinearExpr::variable(Vars[size_t(smallInt(0, 3))]) +
                            LinearExpr::constant(smallInt(-4, 4)));
    case 4: // Equality.
      return Constraint::eq(randomExpr(2, 2));
    case 5: // Divisibility.
      return Constraint::divides(smallInt(2, 8), randomExpr(1, 1));
    case 6:
      return Constraint::notDivides(smallInt(2, 8), randomExpr(1, 1));
    default: // Dense (Omega shape).
      return Constraint::ge(randomExpr(3, 5));
    }
  }

  std::vector<Constraint> randomSystem() {
    std::vector<Constraint> Out;
    int N = int(smallInt(1, 5));
    for (int I = 0; I < N; ++I)
      Out.push_back(randomConstraint());
    return Out;
  }
};

TEST(PreSolve, DifferentialFuzzAgainstOmega) {
  FuzzGen Gen;
  TieredSolver Tiered;
  OmegaTest Reference;
  int Definitive = 0, IntervalAnswered = 0, DbmAnswered = 0;
  for (int I = 0; I < 10000; ++I) {
    std::vector<Constraint> Sys = Gen.randomSystem();
    SatResult T = Tiered.isSatisfiable(Sys);
    SatResult R = Reference.isSatisfiable(Sys);
    if (T != SatResult::Unknown && R != SatResult::Unknown) {
      ASSERT_EQ(T, R) << "divergence on system " << I;
      ++Definitive;
    } else {
      // One side said Unknown; soundness still forbids the pair
      // (Sat, Unsat) in either order, which the branch above covers.
      SUCCEED();
    }
  }
  IntervalAnswered = int(Tiered.tierStats().IntervalHits);
  DbmAnswered = int(Tiered.tierStats().DbmHits);
  // The generator must actually exercise every tier, or this test is
  // vacuous; these floors are far below the observed rates.
  EXPECT_GT(Definitive, 9000);
  EXPECT_GT(IntervalAnswered, 500);
  EXPECT_GT(DbmAnswered, 500);
  EXPECT_GT(int(Tiered.tierStats().OmegaHits), 500);
}

TEST(PreSolve, FuzzTiersOnVsOffAgree) {
  // The same stream through the tiers as --no-knownbits runs them (no
  // congruence tier) against the raw Omega test. Definitive answers must
  // coincide.
  FuzzGen Gen;
  TieredSolver::Options NoCongruence;
  NoCongruence.EnableCongruence = false;
  TieredSolver On(NoCongruence);
  OmegaTest Off;
  for (int I = 0; I < 2000; ++I) {
    std::vector<Constraint> Sys = Gen.randomSystem();
    SatResult A = On.isSatisfiable(Sys);
    SatResult B = Off.isSatisfiable(Sys);
    if (A != SatResult::Unknown && B != SatResult::Unknown) {
      ASSERT_EQ(A, B) << "config divergence on system " << I;
    }
  }
}

/// The reference validity verdict: not(F) expanded to DNF, each disjunct
/// decided by the raw Omega test, with no tiers, slicing, or cache.
ProverResult omegaValid(const FormulaRef &F) {
  const Prover::Options O;
  DnfResult Dnf = toDNF(Formula::negate(F), O.DnfMaxDisjuncts, O.DnfMaxAtoms);
  if (Dnf.BudgetExceeded)
    return ProverResult::Unknown;
  OmegaTest Omega;
  bool SawUnknown = false;
  for (const std::vector<Constraint> &Disjunct : Dnf.Disjuncts) {
    SatResult R = Omega.isSatisfiable(Disjunct);
    if (R == SatResult::Sat)
      return Dnf.ApproximatedForall ? ProverResult::Unknown
                                    : ProverResult::NotProved;
    SawUnknown |= R == SatResult::Unknown;
  }
  return SawUnknown ? ProverResult::Unknown : ProverResult::Proved;
}

TEST(PreSolve, ProverVerdictsUnchangedByTiers) {
  // End-to-end: a validity query through the Prover against the
  // Omega-only reference.
  FormulaRef Context = Formula::conj(
      {Formula::atom(Constraint::ge(var("ps.pv_i"))),
       Formula::atom(Constraint::lt(var("ps.pv_i"), var("ps.pv_n"))),
       Formula::atom(Constraint::eq(var("ps.pv_a") -
                                    var("ps.pv_i").scaled(4)))});
  FormulaRef Goal = Formula::conj(
      {Formula::atom(Constraint::ge(var("ps.pv_a"))),
       Formula::atom(Constraint::lt(var("ps.pv_a"),
                                    var("ps.pv_n").scaled(4)))});
  Prover P;
  FormulaRef Implication = Formula::implies(Context, Goal);
  EXPECT_EQ(P.checkValid(Implication), ProverResult::Proved);
  EXPECT_EQ(omegaValid(Implication), ProverResult::Proved);
  EXPECT_EQ(P.checkValid(Formula::mkTrue()), omegaValid(Formula::mkTrue()));
  FormulaRef NotValid = Formula::atom(Constraint::ge(var("ps.pv_i")));
  EXPECT_EQ(P.checkValid(NotValid), ProverResult::NotProved);
  EXPECT_EQ(omegaValid(NotValid), ProverResult::NotProved);
}

} // namespace
