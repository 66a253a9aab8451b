//===- Formula.h - Presburger-style formulas --------------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable formula DAGs over atomic linear constraints, combined with
/// conjunction, disjunction, and the quantifiers exists/forall — the
/// annotation language of the paper ("linear equalities and inequalities
/// ... combined with and, or, not, and the quantifiers forall, exists").
///
/// Formulas are maintained in negation normal form by construction: there
/// is no Not node. negate() pushes negation to the atoms (GE and DIV/NDIV
/// negate to atoms; EQ negates to a disjunction of two strict
/// inequalities), and swaps And/Or and Exists/Forall.
///
/// Nodes are hash-consed: a thread-safe interner gives every structurally
/// distinct formula exactly one node, identified by a canonical 64-bit id.
/// Structural equality is therefore a pointer compare, and each node
/// carries its structural hash, its tree size, and its sorted
/// free-variable set, memoized at interning time. FormulaRef is a
/// trivially-copyable handle (one pointer) onto such a node.
///
/// Nodes live in *generations*. The base is process-wide and immortal: it
/// holds True/False, certificate formulas, and everything interned outside
/// any check. Each VarNamespace (one per check) opens a private generation
/// on its thread; nodes interned there are freed together when the
/// namespace ends, so a resident daemon's memory does not grow with the
/// checks it has run. A node points only into its own generation or into
/// the base, and a base node never memoizes a generation node. A check's
/// formulas mention only that check's namespace-private variables, so no
/// node of one check could be reused by another anyway. Node ids come from
/// one process-wide counter whatever the generation, so sorting by id
/// orders atoms the same way in every generation.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_FORMULA_H
#define MCSAFE_CONSTRAINTS_FORMULA_H

#include "constraints/Constraint.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mcsafe {

class Formula;
class FormulaInterner;

/// A handle to an interned formula node. Equality of handles is structural
/// equality of formulas (hash-consing canonicalizes). A handle to a
/// generation node dangles once its generation ends.
class FormulaRef {
public:
  constexpr FormulaRef() = default;
  constexpr FormulaRef(std::nullptr_t) {}

  const Formula *operator->() const { return Node; }
  const Formula &operator*() const { return *Node; }
  constexpr explicit operator bool() const { return Node != nullptr; }
  constexpr const Formula *get() const { return Node; }

  friend constexpr bool operator==(FormulaRef A, FormulaRef B) {
    return A.Node == B.Node;
  }
  friend constexpr bool operator!=(FormulaRef A, FormulaRef B) {
    return A.Node != B.Node;
  }

private:
  constexpr explicit FormulaRef(const Formula *Node) : Node(Node) {}

  const Formula *Node = nullptr;

  friend class Formula;
  friend class FormulaInterner;
  friend FormulaRef simplify(const FormulaRef &F);
};

/// Node kinds. There is deliberately no Not node; see file comment.
enum class FormulaKind : uint8_t {
  True,
  False,
  Atom,
  And,
  Or,
  Exists,
  Forall,
};

/// The sorted free-variable set of a formula, memoized on its node.
/// Iterates in increasing VarId order; membership is a binary search.
class FreeVarSet {
public:
  using const_iterator = std::vector<VarId>::const_iterator;

  const_iterator begin() const { return Sorted.begin(); }
  const_iterator end() const { return Sorted.end(); }
  size_t size() const { return Sorted.size(); }
  bool empty() const { return Sorted.empty(); }
  bool contains(VarId V) const {
    return std::binary_search(Sorted.begin(), Sorted.end(), V);
  }
  /// std::set-style membership count (0 or 1).
  size_t count(VarId V) const { return contains(V) ? 1 : 0; }

private:
  std::vector<VarId> Sorted;

  friend class FormulaInterner;
};

/// An immutable, interned formula node. Instances are created only by the
/// interner (via the smart constructors) and live as long as their
/// generation: the process for base nodes, one check for the others.
class Formula {
public:
  // --- Smart constructors (perform local simplification). ----------------

  static FormulaRef mkTrue();
  static FormulaRef mkFalse();
  /// Wraps an atom; trivially-true/false atoms collapse to True/False.
  static FormulaRef atom(Constraint C);
  /// N-ary conjunction: flattens nested Ands, drops True, collapses on
  /// False, deduplicates syntactically. Empty -> True.
  static FormulaRef conj(std::vector<FormulaRef> Children);
  static FormulaRef conj2(FormulaRef A, FormulaRef B) {
    return conj({std::move(A), std::move(B)});
  }
  /// N-ary disjunction (dual of conj). Empty -> False.
  static FormulaRef disj(std::vector<FormulaRef> Children);
  static FormulaRef disj2(FormulaRef A, FormulaRef B) {
    return disj({std::move(A), std::move(B)});
  }
  static FormulaRef exists(VarId V, FormulaRef Body);
  static FormulaRef forall(VarId V, FormulaRef Body);
  /// A => B, as disj(negate(A), B).
  static FormulaRef implies(const FormulaRef &A, FormulaRef B);

  /// The negation, pushed all the way to the atoms (stays NNF). Memoized
  /// per node: repeated negation of the same formula is O(1).
  static FormulaRef negate(const FormulaRef &F);

  // --- Accessors. ---------------------------------------------------------

  FormulaKind kind() const { return Kind; }
  bool isTrue() const { return Kind == FormulaKind::True; }
  bool isFalse() const { return Kind == FormulaKind::False; }

  /// Only valid for Atom nodes.
  const Constraint &constraint() const;
  /// Children of And/Or; the single body of Exists/Forall.
  const std::vector<FormulaRef> &children() const { return Children; }
  /// Bound variable of Exists/Forall.
  VarId boundVar() const { return BoundVar; }

  /// The canonical interner id: equal ids <=> structurally equal formulas.
  /// 64 bits, so ids never wrap even though generations are freed and a
  /// daemon keeps interning for its whole life.
  uint64_t id() const { return Id; }

  /// The serial of the generation the node lives in; 0 for the base.
  uint64_t generation() const { return Gen; }

  /// Total node count of the formula as a tree (used for blowup budgets;
  /// shared subterms count once per occurrence). Memoized.
  size_t size() const { return TreeSize; }

  /// The free variables, memoized on the node.
  const FreeVarSet &freeVars() const { return Free; }
  bool hasFreeVar(VarId V) const { return Free.contains(V); }

  /// Capture-avoiding only in the sense that substitution stops at a
  /// quantifier binding the same variable; bound variables are always
  /// freshly minted by this library so capture cannot occur.
  static FormulaRef substitute(const FormulaRef &F, VarId V,
                               const LinearExpr &Replacement);

  /// Structural equality — with hash-consing, a pointer compare.
  static bool equal(const FormulaRef &A, const FormulaRef &B) {
    return A == B;
  }

  /// Structural hash, memoized at interning time. Stable (support/Digest.h
  /// mixer): identical across platforms for the same id structure.
  uint64_t hash() const { return Hash; }

  std::string str() const;

  /// Interner occupancy, surfaced as metrics gauges: live totals over the
  /// base and every generation not yet freed.
  struct InternStats {
    uint64_t Nodes = 0;      ///< Live formula nodes.
    uint64_t DedupHits = 0;  ///< Constructions answered by an existing node.
    uint64_t Bytes = 0;      ///< Node-slab bytes the live nodes occupy.
  };
  static InternStats internStats();

private:
  Formula() = default;
  Formula(const Formula &) = delete;
  Formula &operator=(const Formula &) = delete;

  FormulaKind Kind = FormulaKind::True;
  VarId BoundVar;
  uint64_t Id = 0;
  uint64_t Gen = 0;
  uint64_t Hash = 0;
  uint64_t TreeSize = 1;
  std::vector<FormulaRef> Children;
  std::optional<Constraint> Atom; ///< Set for Atom nodes.
  FreeVarSet Free;
  /// Memoized negation / simplification results (null until computed).
  /// Benignly racy: all writers store the same canonical node. Only set to
  /// a node of this node's generation or of the base, so a memo never
  /// outlives its target.
  mutable std::atomic<const Formula *> NegMemo{nullptr};
  mutable std::atomic<const Formula *> SimpMemo{nullptr};

  friend class FormulaInterner;
  friend FormulaRef simplify(const FormulaRef &F);
};

/// RAII: opens a fresh generation and makes it this thread's interning
/// target until destruction, which frees every node interned into it.
/// VarNamespace holds one, so each check gets its own. Generations nest
/// (the previous target is restored), but must end in LIFO order on the
/// thread that opened them, after every other thread stopped using them.
class FormulaGeneration {
public:
  FormulaGeneration();
  ~FormulaGeneration();
  FormulaGeneration(const FormulaGeneration &) = delete;
  FormulaGeneration &operator=(const FormulaGeneration &) = delete;

  /// This thread's interning target; null means the base.
  static FormulaInterner *current();
  /// The serial of current(); 0 for the base.
  static uint64_t currentSerial();

private:
  FormulaInterner *Interner;
  FormulaInterner *Saved;
};

/// RAII: routes this thread's interning into \p Target (null: the base)
/// until destruction. A pool task working for a check captures the
/// check's FormulaGeneration::current() at spawn time and installs it
/// here, since the thread that runs it may belong to another check or to
/// none. Certificate loading installs the base.
class FormulaGenerationScope {
public:
  explicit FormulaGenerationScope(FormulaInterner *Target);
  ~FormulaGenerationScope();
  FormulaGenerationScope(const FormulaGenerationScope &) = delete;
  FormulaGenerationScope &operator=(const FormulaGenerationScope &) = delete;

private:
  FormulaInterner *Saved;
};

/// Bottom-up simplification: constant-folds atoms, re-runs the smart
/// constructors, and prunes redundant conjuncts inside And-of-atoms
/// (duplicate or subsumed GE atoms over the same coefficient vector).
/// Used at junction points during VC generation to keep wlp formulas
/// small (Section 5.2.1, enhancement five). Memoized per node.
FormulaRef simplify(const FormulaRef &F);

} // namespace mcsafe

#endif // MCSAFE_CONSTRAINTS_FORMULA_H
