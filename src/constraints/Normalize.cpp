//===- Normalize.cpp ------------------------------------------------------===//

#include "constraints/Normalize.h"

#include <algorithm>
#include <cassert>

using namespace mcsafe;

namespace {

/// The first pass: decides the blowup budget from disjunct counts and
/// lengths alone, without building a disjunct. It visits nodes in the
/// builder's order and stops where the builder would (a False conjunct,
/// an exceeded budget), so a query that would blow up costs one walk
/// instead of up to MaxDisjuncts vectors. Each quantifier it reaches
/// mints its fresh variable here, in the builder's order; the builder
/// then takes them from Fresh, so the fresh-name sequence is the same
/// whether or not the budget holds.
struct DnfSizer {
  size_t MaxDisjuncts;
  size_t MaxAtoms;
  bool ApproximatedForall = false;
  bool BudgetExceeded = false;
  std::vector<VarId> Fresh;

  /// The DNF's disjunct count and longest disjunct.
  struct Shape {
    size_t Count = 0;
    size_t MaxLen = 0;
  };

  Shape exceed() {
    BudgetExceeded = true;
    return {};
  }

  Shape run(const FormulaRef &F) {
    switch (F->kind()) {
    case FormulaKind::True:
      return {1, 0};
    case FormulaKind::False:
      return {0, 0};
    case FormulaKind::Atom:
      return {1, 1};
    case FormulaKind::Or: {
      Shape Result;
      for (const FormulaRef &C : F->children()) {
        Shape Sub = run(C);
        if (BudgetExceeded)
          return {};
        Result.Count += Sub.Count;
        if (Sub.Count)
          Result.MaxLen = std::max(Result.MaxLen, Sub.MaxLen);
        if (Result.Count > MaxDisjuncts)
          return exceed();
      }
      return Result;
    }
    case FormulaKind::And: {
      Shape Result{1, 0};
      for (const FormulaRef &C : F->children()) {
        Shape Sub = run(C);
        if (BudgetExceeded)
          return {};
        if (Sub.Count == 0)
          return {}; // One child was false.
        // Every (left, right) pair is merged: the longest merge is the
        // two longest, and Count * Sub.Count > MaxDisjuncts without
        // overflow.
        if (Result.MaxLen + Sub.MaxLen > MaxAtoms ||
            Sub.Count > MaxDisjuncts / Result.Count)
          return exceed();
        Result.Count *= Sub.Count;
        Result.MaxLen += Sub.MaxLen;
      }
      return Result;
    }
    case FormulaKind::Exists:
    case FormulaKind::Forall:
      if (F->kind() == FormulaKind::Forall)
        ApproximatedForall = true;
      Fresh.push_back(freshVar(varName(F->boundVar())));
      // Renaming the bound variable to a fresh one keeps the body's
      // shape, so the unrenamed body sizes the same.
      return run(F->children().front());
    }
    assert(false && "unknown formula kind");
    return {};
  }
};

/// The second pass, run only within budget: builds the disjuncts.
struct DnfBuilder {
  const std::vector<VarId> &Fresh;
  size_t NextFresh = 0;

  /// Returns the DNF of \p F as a list of conjunctions.
  std::vector<std::vector<Constraint>> run(const FormulaRef &F) {
    switch (F->kind()) {
    case FormulaKind::True:
      return {{}};
    case FormulaKind::False:
      return {};
    case FormulaKind::Atom:
      return {{F->constraint()}};
    case FormulaKind::Or: {
      std::vector<std::vector<Constraint>> Result;
      for (const FormulaRef &C : F->children())
        for (auto &Conj : run(C))
          Result.push_back(std::move(Conj));
      return Result;
    }
    case FormulaKind::And: {
      std::vector<std::vector<Constraint>> Result = {{}};
      for (const FormulaRef &C : F->children()) {
        std::vector<std::vector<Constraint>> Sub = run(C);
        // A single-disjunct conjunct (an atom, by far the common case)
        // extends every partial disjunct in place: copying them all per
        // conjunct would make a flat conjunction quadratic.
        if (Sub.size() == 1) {
          for (std::vector<Constraint> &Left : Result)
            Left.insert(Left.end(), Sub[0].begin(), Sub[0].end());
          continue;
        }
        std::vector<std::vector<Constraint>> Next;
        Next.reserve(Result.size() * Sub.size());
        for (const auto &Left : Result) {
          for (const auto &Right : Sub) {
            std::vector<Constraint> Merged;
            Merged.reserve(Left.size() + Right.size());
            Merged.insert(Merged.end(), Left.begin(), Left.end());
            Merged.insert(Merged.end(), Right.begin(), Right.end());
            Next.push_back(std::move(Merged));
          }
        }
        Result = std::move(Next);
        if (Result.empty())
          return Result; // One child was false.
      }
      return Result;
    }
    case FormulaKind::Exists:
    case FormulaKind::Forall: {
      assert(NextFresh < Fresh.size() && "sizer and builder disagree");
      VarId V = Fresh[NextFresh++];
      FormulaRef Body = Formula::substitute(
          F->children().front(), F->boundVar(), LinearExpr::variable(V));
      return run(Body);
    }
    }
    assert(false && "unknown formula kind");
    return {};
  }
};

} // namespace

DnfResult mcsafe::toDNF(const FormulaRef &F, size_t MaxDisjuncts,
                        size_t MaxAtoms) {
  DnfSizer Sizer;
  Sizer.MaxDisjuncts = MaxDisjuncts;
  Sizer.MaxAtoms = MaxAtoms;
  Sizer.run(F);
  DnfResult R;
  R.ApproximatedForall = Sizer.ApproximatedForall;
  R.BudgetExceeded = Sizer.BudgetExceeded;
  if (!R.BudgetExceeded)
    R.Disjuncts = DnfBuilder{Sizer.Fresh}.run(F);
  return R;
}
