//===- DnfBudgetTest.cpp - toDNF's budget decision matches the builder ----===//
//
// toDNF decides its blowup budget in a sizing pass before it builds a
// single disjunct. That pass must agree exactly with expanding the
// formula and checking as it goes: the same Disjuncts, BudgetExceeded and
// ApproximatedForall (a certificate witness records the latter), and the
// same fresh quantifier names minted. ReferenceBuilder below is the
// expand-and-check builder toDNF used before the sizing pass, kept here
// as the oracle; seeded random formulas straddle both the default budgets
// and tiny ones.
//
//===----------------------------------------------------------------------===//

#include "constraints/Normalize.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace mcsafe;

namespace {

/// The expand-and-check DNF builder: budgets are checked while the
/// disjunct vectors are built, and expansion stops at the first excess.
struct ReferenceBuilder {
  size_t MaxDisjuncts;
  size_t MaxAtoms;
  bool ApproximatedForall = false;
  bool BudgetExceeded = false;

  std::vector<std::vector<Constraint>> run(const FormulaRef &F) {
    if (BudgetExceeded)
      return {};
    switch (F->kind()) {
    case FormulaKind::True:
      return {{}};
    case FormulaKind::False:
      return {};
    case FormulaKind::Atom:
      return {{F->constraint()}};
    case FormulaKind::Or: {
      std::vector<std::vector<Constraint>> Result;
      for (const FormulaRef &C : F->children()) {
        std::vector<std::vector<Constraint>> Sub = run(C);
        for (auto &Conj : Sub) {
          Result.push_back(std::move(Conj));
          if (Result.size() > MaxDisjuncts) {
            BudgetExceeded = true;
            return {};
          }
        }
      }
      return Result;
    }
    case FormulaKind::And: {
      std::vector<std::vector<Constraint>> Result = {{}};
      for (const FormulaRef &C : F->children()) {
        std::vector<std::vector<Constraint>> Sub = run(C);
        if (BudgetExceeded)
          return {};
        std::vector<std::vector<Constraint>> Next;
        for (const auto &Left : Result) {
          for (const auto &Right : Sub) {
            std::vector<Constraint> Merged = Left;
            Merged.insert(Merged.end(), Right.begin(), Right.end());
            if (Merged.size() > MaxAtoms) {
              BudgetExceeded = true;
              return {};
            }
            Next.push_back(std::move(Merged));
            if (Next.size() > MaxDisjuncts) {
              BudgetExceeded = true;
              return {};
            }
          }
        }
        Result = std::move(Next);
        if (Result.empty())
          return Result;
      }
      return Result;
    }
    case FormulaKind::Exists:
    case FormulaKind::Forall: {
      if (F->kind() == FormulaKind::Forall)
        ApproximatedForall = true;
      VarId Fresh = freshVar(varName(F->boundVar()));
      FormulaRef Body = Formula::substitute(
          F->children().front(), F->boundVar(), LinearExpr::variable(Fresh));
      return run(Body);
    }
    }
    return {};
  }
};

/// The reference result. Past the budget the builder's partial disjuncts
/// are meaningless (an Or above the excess may still hold some); toDNF
/// documents Disjuncts as empty then, so the oracle clears them too.
DnfResult referenceDNF(const FormulaRef &F, size_t MaxDisjuncts,
                       size_t MaxAtoms) {
  ReferenceBuilder B{MaxDisjuncts, MaxAtoms};
  DnfResult R;
  R.Disjuncts = B.run(F);
  R.ApproximatedForall = B.ApproximatedForall;
  R.BudgetExceeded = B.BudgetExceeded;
  if (R.BudgetExceeded)
    R.Disjuncts.clear();
  return R;
}

const char *const FreeNames[] = {"dnf.x0", "dnf.x1", "dnf.x2", "dnf.x3"};
const char *const BoundNames[] = {"dnf.q0", "dnf.q1", "dnf.q2"};

/// Everything observable about one conversion, rendered in a fresh
/// namespace: flags, every disjunct (fresh names included), and the next
/// fresh name of each bound prefix, which shows how many the conversion
/// minted.
std::string observe(DnfResult (*Convert)(const FormulaRef &, size_t, size_t),
                    const FormulaRef &F, size_t MaxDisjuncts,
                    size_t MaxAtoms) {
  VarNamespace NS;
  DnfResult R = Convert(F, MaxDisjuncts, MaxAtoms);
  std::string Out = "exceeded=" + std::to_string(R.BudgetExceeded) +
                    " forall=" + std::to_string(R.ApproximatedForall) +
                    " disjuncts=" + std::to_string(R.Disjuncts.size()) +
                    "\n";
  for (const std::vector<Constraint> &D : R.Disjuncts) {
    for (const Constraint &C : D)
      Out += C.str() + " & ";
    Out += "\n";
  }
  for (const char *B : BoundNames)
    Out += varName(freshVar(B)) + " ";
  return Out;
}

DnfResult newDNF(const FormulaRef &F, size_t MaxDisjuncts, size_t MaxAtoms) {
  return toDNF(F, MaxDisjuncts, MaxAtoms);
}

class FormulaGen {
public:
  explicit FormulaGen(uint32_t Seed) : Rng(Seed) {}

  int pick(int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  }

  LinearExpr var(bool AllowBound) {
    int N = AllowBound ? pick(0, 6) : pick(0, 3);
    return LinearExpr::variable(
        varId(N < 4 ? FreeNames[N] : BoundNames[N - 4]));
  }

  /// A random atom; a wide constant range keeps atoms mostly distinct,
  /// so conjunctions do not collapse by deduplication.
  FormulaRef atom() {
    LinearExpr E = var(true).scaled(pick(1, 3));
    if (pick(0, 1))
      E = E - var(true).scaled(pick(1, 3));
    E = E.plusConstant(pick(-1000, 1000));
    return Formula::atom(pick(0, 4) ? Constraint::ge(E) : Constraint::eq(E));
  }

  /// The atom x0 - \p I >= 0: distinct for distinct \p I, never
  /// constant.
  static FormulaRef distinctAtom(int I) {
    return Formula::atom(Constraint::ge(
        LinearExpr::variable(varId(FreeNames[0])).plusConstant(-I)));
  }

  FormulaRef quantified(bool Forall, FormulaRef Body) {
    VarId Q = varId(BoundNames[pick(0, 2)]);
    return Forall ? Formula::forall(Q, std::move(Body))
                  : Formula::exists(Q, std::move(Body));
  }

  /// Random nesting of And/Or/Exists/Forall over atoms.
  FormulaRef nested(int Depth) {
    if (Depth == 0 || pick(0, 5) == 0)
      return atom();
    switch (pick(0, 5)) {
    case 0:
    case 1:
    case 2: {
      std::vector<FormulaRef> Children;
      for (int I = pick(2, 4); I > 0; --I)
        Children.push_back(nested(Depth - 1));
      return Formula::conj(std::move(Children));
    }
    case 3:
    case 4: {
      std::vector<FormulaRef> Children;
      for (int I = pick(2, 4); I > 0; --I)
        Children.push_back(nested(Depth - 1));
      return Formula::disj(std::move(Children));
    }
    default:
      return quantified(pick(0, 1), nested(Depth - 1));
    }
  }

  /// An And of \p K two-way Ors (2^K disjuncts), with quantifiers mixed
  /// into some factors.
  FormulaRef product(int K) {
    std::vector<FormulaRef> Factors;
    for (int I = 0; I < K; ++I) {
      FormulaRef Or = Formula::disj2(atom(), atom());
      if (pick(0, 3) == 0)
        Or = quantified(pick(0, 1), Or);
      Factors.push_back(std::move(Or));
    }
    return Formula::conj(std::move(Factors));
  }

  /// A conjunction of about \p N atoms, split across an Or so the merged
  /// length is what crosses MaxAtoms.
  FormulaRef longConjunction(int N) {
    std::vector<FormulaRef> Atoms;
    for (int I = 0; I < N; ++I)
      Atoms.push_back(atom());
    FormulaRef Long = Formula::conj(std::move(Atoms));
    return Formula::conj2(Formula::disj2(atom(), Formula::conj2(atom(), atom())),
                          quantified(pick(0, 1), Long));
  }

private:
  std::mt19937 Rng;
};

struct Budget {
  size_t MaxDisjuncts, MaxAtoms;
};
const Budget Budgets[] = {{1024, 512}, {4, 3}};

/// Checks \p F under both budgets; tallies which side of each budget it
/// fell on.
void expectSame(const FormulaRef &F, const char *Family, int Seed,
                unsigned (&Exceeded)[2], unsigned (&Within)[2]) {
  for (int K = 0; K < 2; ++K) {
    const Budget &B = Budgets[K];
    std::string Want = observe(referenceDNF, F, B.MaxDisjuncts, B.MaxAtoms);
    std::string Got = observe(newDNF, F, B.MaxDisjuncts, B.MaxAtoms);
    ASSERT_EQ(Got, Want) << Family << " seed " << Seed << " budget "
                         << B.MaxDisjuncts << "/" << B.MaxAtoms
                         << "\nformula: " << F->str();
    ++(Want.starts_with("exceeded=1") ? Exceeded[K] : Within[K]);
  }
}

TEST(DnfBudget, RandomFormulasMatchTheReferenceBuilder) {
  // Tally the outcomes so the sweep provably reaches both sides of each
  // budget.
  unsigned Exceeded[2] = {0, 0}, Within[2] = {0, 0};
  for (int Seed = 1; Seed <= 150; ++Seed) {
    FormulaGen Gen(static_cast<uint32_t>(Seed));
    expectSame(Gen.nested(Gen.pick(2, 6)), "nested", Seed, Exceeded, Within);
    expectSame(Gen.product(Gen.pick(9, 13)), "product", Seed, Exceeded,
               Within);
    // Each long conjunction costs a quadratic expansion; a fifth of the
    // seeds is plenty to straddle MaxAtoms.
    if (Seed % 5 == 0)
      expectSame(Gen.longConjunction(Gen.pick(505, 512)), "long", Seed,
                 Exceeded, Within);
    if (HasFatalFailure())
      return;
  }
  for (int K = 0; K < 2; ++K) {
    EXPECT_GT(Exceeded[K], 30u) << "budget " << K;
    EXPECT_GT(Within[K], 30u) << "budget " << K;
  }
}

TEST(DnfBudget, ForallAfterTheExitPointIsNotApproximated) {
  unsigned Exceeded[2] = {0, 0}, Within[2] = {0, 0};
  // 2^11 = 2048 disjuncts: the default budget runs out at the eleventh
  // factor, before the trailing Forall is reached.
  std::vector<FormulaRef> Factors;
  for (int I = 0; I < 11; ++I)
    Factors.push_back(Formula::disj2(FormulaGen::distinctAtom(2 * I),
                                     FormulaGen::distinctAtom(2 * I + 1)));
  FormulaRef Forall =
      Formula::forall(varId("dnf.q0"),
                      Formula::atom(Constraint::ge(
                          LinearExpr::variable(varId("dnf.q0"))
                              .plusConstant(-3))));
  std::vector<FormulaRef> After = Factors;
  After.push_back(Forall);
  FormulaRef Late = Formula::conj(After);
  {
    VarNamespace NS;
    DnfResult R = toDNF(Late);
    EXPECT_TRUE(R.BudgetExceeded);
    EXPECT_FALSE(R.ApproximatedForall);
    EXPECT_TRUE(R.Disjuncts.empty());
  }
  expectSame(Late, "forall-after-exit", 7, Exceeded, Within);

  // The same Forall first is reached before the budget runs out.
  std::vector<FormulaRef> Before = {Forall};
  Before.insert(Before.end(), Factors.begin(), Factors.end());
  FormulaRef Early = Formula::conj(Before);
  {
    VarNamespace NS;
    DnfResult R = toDNF(Early);
    EXPECT_TRUE(R.BudgetExceeded);
    EXPECT_TRUE(R.ApproximatedForall);
  }
  expectSame(Early, "forall-before-exit", 7, Exceeded, Within);

  // In an Or, the running count is the exit point: 2^10 + 1 disjuncts
  // exceed at the last atom, before the Forall after it.
  std::vector<FormulaRef> TenFactors(Factors.begin(), Factors.begin() + 10);
  FormulaRef OrLate = Formula::disj(
      {Formula::conj(TenFactors), FormulaGen::distinctAtom(100), Forall});
  {
    VarNamespace NS;
    DnfResult R = toDNF(OrLate);
    EXPECT_TRUE(R.BudgetExceeded);
    EXPECT_FALSE(R.ApproximatedForall);
  }
  expectSame(OrLate, "or-forall-after-exit", 7, Exceeded, Within);
}

TEST(DnfBudget, AtomBudgetBoundsTheLongestDisjunct) {
  unsigned Exceeded[2] = {0, 0}, Within[2] = {0, 0};
  // (a | b & c) & x0 >= 0 & ... : the longest disjunct is the b & c arm
  // plus the long conjunction, so 510 atoms fit MaxAtoms = 512 and 511
  // do not.
  for (int N : {510, 511}) {
    std::vector<FormulaRef> Atoms = {Formula::disj2(
        FormulaGen::distinctAtom(-1),
        Formula::conj2(FormulaGen::distinctAtom(-2),
                       FormulaGen::distinctAtom(-3)))};
    for (int I = 0; I < N; ++I)
      Atoms.push_back(FormulaGen::distinctAtom(I));
    FormulaRef F = Formula::conj(std::move(Atoms));
    {
      VarNamespace NS;
      EXPECT_EQ(toDNF(F).BudgetExceeded, N == 511) << N;
    }
    expectSame(F, "atom-budget", N, Exceeded, Within);
  }
}

} // namespace
