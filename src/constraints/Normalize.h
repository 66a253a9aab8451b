//===- Normalize.h - DNF conversion for satisfiability ----------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts a formula (already in negation normal form by construction)
/// into disjunctive normal form for the Omega test, with a blowup budget.
///
/// Quantifier handling during satisfiability checking: each quantifier is
/// replaced by a fresh *free* variable.
///   - Exists is exact: sat(exists v. F) == sat(F[v := fresh]).
///   - Forall is a sound weakening: forall v. F implies F[v := fresh], so
///     the transformed formula is satisfiable whenever the original is;
///     an Unsat answer therefore remains trustworthy, while a Sat answer
///     is flagged as possibly spurious (ApproximatedForall). The checker
///     only ever acts on Unsat ("proved"), so this keeps the overall
///     analysis sound.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_NORMALIZE_H
#define MCSAFE_CONSTRAINTS_NORMALIZE_H

#include "constraints/Formula.h"

#include <vector>

namespace mcsafe {

/// Result of DNF conversion. An empty Disjuncts list means "false"; a
/// disjunct with no atoms means "true".
struct DnfResult {
  std::vector<std::vector<Constraint>> Disjuncts;
  /// A Forall quantifier was replaced by a free variable (Sat answers may
  /// be spurious; Unsat answers remain exact).
  bool ApproximatedForall = false;
  /// The blowup budget was exceeded; Disjuncts is then empty and
  /// unusable. Decided before any disjunct is built.
  bool BudgetExceeded = false;
};

/// Converts to DNF. \p MaxDisjuncts bounds the number of disjuncts and
/// \p MaxAtoms the atoms per disjunct (of the final DNF and of every
/// partial one met while expanding, conjuncts left to right).
DnfResult toDNF(const FormulaRef &F, size_t MaxDisjuncts = 1024,
                size_t MaxAtoms = 512);

} // namespace mcsafe

#endif // MCSAFE_CONSTRAINTS_NORMALIZE_H
