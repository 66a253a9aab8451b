//===- Formula.cpp --------------------------------------------------------===//

#include "constraints/Formula.h"

#include "support/Arena.h"
#include "support/Digest.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <map>
#include <mutex>
#include <new>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

using namespace mcsafe;

//===----------------------------------------------------------------------===//
// The interner
//===----------------------------------------------------------------------===//

namespace {

/// Live totals over the base and every generation not yet freed.
std::atomic<uint64_t> LiveNodes{0};
std::atomic<uint64_t> LiveBytes{0};
std::atomic<uint64_t> DedupHits{0};
/// Node ids: one process-wide counter, whatever the generation.
std::atomic<uint64_t> NextId{0};
/// Generation serials; 0 is the base.
std::atomic<uint64_t> NextSerial{1};

/// This thread's interning target; null means the base.
thread_local FormulaInterner *Current = nullptr;

} // namespace

namespace mcsafe {

/// One hash-consing table: the immortal base, or a generation. A node is
/// placement-constructed into its table's arena slabs and destroyed with
/// its table, so a FormulaRef (a bare pointer) can be copied freely
/// across threads for as long as its generation lives. The base is
/// heap-allocated and intentionally leaked so no static-destruction order
/// can invalidate live handles (it stays reachable from the global
/// pointer, which keeps LeakSanitizer quiet).
class FormulaInterner {
public:
  static FormulaInterner &base() {
    static FormulaInterner *B = new FormulaInterner(0);
    return *B;
  }

  explicit FormulaInterner(uint64_t Serial) : Serial(Serial) {
    // True and False live in the base before anything else is interned,
    // so a function-local static handle to them can never land in a
    // generation.
    if (Serial == 0) {
      TrueNode = insert(FormulaKind::True, VarId(), {}, {});
      FalseNode = insert(FormulaKind::False, VarId(), {}, {});
    }
  }

  ~FormulaInterner() {
    uint64_t Nodes = 0, Bytes = 0;
    for (Shard &S : Shards) {
      for (auto &[Hash, Chain] : S.Table)
        for (const Formula *N : Chain)
          N->~Formula();
      Nodes += S.NodeCount;
      Bytes += S.NodeArena.bytesReserved();
    }
    LiveNodes.fetch_sub(Nodes, std::memory_order_relaxed);
    LiveBytes.fetch_sub(Bytes, std::memory_order_relaxed);
  }

  /// Interns a node with the given shape into this thread's target,
  /// returning the canonical ref. \p Children must already be canonical
  /// refs, each in the target or in the base.
  static FormulaRef intern(FormulaKind Kind, VarId BoundVar,
                           std::optional<Constraint> Atom,
                           std::vector<FormulaRef> Children) {
    // Injected allocator fault: simulate memory exhaustion at the one
    // chokepoint every formula passes through. The check boundary turns
    // the bad_alloc into an InternalError verdict, never a crash.
    if (support::faultPoint("alloc/formula"))
      throw std::bad_alloc();

    FormulaInterner &Base = base();
    FormulaInterner &Target = Current ? *Current : Base;
    bool AllBase = true;
    for (const FormulaRef &C : Children) {
      if (C->Gen == 0)
        continue;
      AllBase = false;
      // A node outliving a child would leave a dangling pointer behind;
      // the check boundary turns this into an InternalError instead.
      if (C->Gen != Target.Serial)
        throw std::logic_error("formula node mixes generations");
    }

    uint64_t Hash = hashNode(Kind, BoundVar, Atom, Children);
    Shard &S = Target.shardFor(Hash);
    std::lock_guard<std::mutex> L(S.M);
    if (const Formula *N = S.find(Hash, Kind, BoundVar, Atom, Children))
      return hit(N);
    // A generation node over base children may already exist in the base
    // (a certificate formula being revalidated). The lock order is always
    // generation shard, then base shard.
    if (&Target != &Base && AllBase) {
      Shard &BS = Base.shardFor(Hash);
      std::lock_guard<std::mutex> BL(BS.M);
      if (const Formula *N = BS.find(Hash, Kind, BoundVar, Atom, Children))
        return hit(N);
    }
    return Target.insertLocked(S, Hash, Kind, BoundVar, std::move(Atom),
                               std::move(Children));
  }

  static Formula::InternStats stats() {
    Formula::InternStats Out;
    Out.Nodes = LiveNodes.load(std::memory_order_relaxed);
    Out.DedupHits = DedupHits.load(std::memory_order_relaxed);
    Out.Bytes = LiveBytes.load(std::memory_order_relaxed);
    return Out;
  }

  const uint64_t Serial;
  FormulaRef TrueNode, FalseNode; ///< Set in the base only.

private:
  static constexpr unsigned NumShards = 16;
  /// Slab size. A check interns a few hundred nodes per shard at most,
  /// so small slabs keep a short-lived generation's footprint small.
  static constexpr size_t SlabBytes = 16 * 1024;

  struct Shard {
    mutable std::mutex M;
    /// Hash -> collision chain of canonical nodes.
    std::unordered_map<uint64_t, std::vector<const Formula *>> Table;
    /// Node storage. Nodes hold std::vector members whose heap blocks
    /// stay reachable through this slab until the table's destructor
    /// destroys them, so nothing leaks in the LeakSanitizer sense.
    support::Arena NodeArena{SlabBytes};
    uint64_t NodeCount = 0;

    const Formula *find(uint64_t Hash, FormulaKind Kind, VarId BoundVar,
                        const std::optional<Constraint> &Atom,
                        const std::vector<FormulaRef> &Children) const {
      auto It = Table.find(Hash);
      if (It != Table.end())
        for (const Formula *N : It->second)
          if (sameNode(*N, Kind, BoundVar, Atom, Children))
            return N;
      return nullptr;
    }
  };

  Shard &shardFor(uint64_t Hash) { return Shards[Hash % NumShards]; }

  static FormulaRef hit(const Formula *N) {
    DedupHits.fetch_add(1, std::memory_order_relaxed);
    return FormulaRef(N);
  }

  /// Creates a node known to be new in this table.
  FormulaRef insert(FormulaKind Kind, VarId BoundVar,
                    std::optional<Constraint> Atom,
                    std::vector<FormulaRef> Children) {
    uint64_t Hash = hashNode(Kind, BoundVar, Atom, Children);
    Shard &S = shardFor(Hash);
    std::lock_guard<std::mutex> L(S.M);
    return insertLocked(S, Hash, Kind, BoundVar, std::move(Atom),
                        std::move(Children));
  }

  /// Creates a node in \p S. Caller holds S.M.
  FormulaRef insertLocked(Shard &S, uint64_t Hash, FormulaKind Kind,
                          VarId BoundVar, std::optional<Constraint> Atom,
                          std::vector<FormulaRef> Children) {
    size_t Reserved = S.NodeArena.bytesReserved();
    Formula *N = ::new (S.NodeArena.allocate(sizeof(Formula),
                                             alignof(Formula))) Formula();
    N->Kind = Kind;
    N->BoundVar = BoundVar;
    N->Hash = Hash;
    N->Atom = std::move(Atom);
    N->Children = std::move(Children);
    N->Id = NextId.fetch_add(1, std::memory_order_relaxed);
    N->Gen = Serial;
    N->TreeSize = 1;
    for (const FormulaRef &C : N->Children) {
      uint64_t Sum = N->TreeSize + C->TreeSize;
      N->TreeSize = Sum >= N->TreeSize ? Sum : UINT64_MAX; // Saturate.
    }
    computeFreeVars(*N);
    S.Table[Hash].push_back(N);
    ++S.NodeCount;
    LiveNodes.fetch_add(1, std::memory_order_relaxed);
    LiveBytes.fetch_add(S.NodeArena.bytesReserved() - Reserved,
                        std::memory_order_relaxed);
    return FormulaRef(N);
  }

  static uint64_t hashNode(FormulaKind Kind, VarId BoundVar,
                           const std::optional<Constraint> &Atom,
                           const std::vector<FormulaRef> &Children) {
    // The stable mixer, never std::hash: node hashes must be a pure
    // function of structure, identical on every platform.
    support::Digest D;
    D.add(static_cast<uint64_t>(Kind));
    if (Atom)
      D.add(Atom->hash());
    if (Kind == FormulaKind::Exists || Kind == FormulaKind::Forall)
      D.add(BoundVar.index());
    // Children are canonical, so their memoized hashes identify them.
    for (const FormulaRef &C : Children)
      D.add(C->hash());
    return D.value();
  }

  static bool sameNode(const Formula &N, FormulaKind Kind, VarId BoundVar,
                       const std::optional<Constraint> &Atom,
                       const std::vector<FormulaRef> &Children) {
    if (N.Kind != Kind || N.Children.size() != Children.size())
      return false;
    if (Kind == FormulaKind::Exists || Kind == FormulaKind::Forall)
      if (N.BoundVar != BoundVar)
        return false;
    // Children are canonical: pointer compare is structural compare.
    for (size_t I = 0; I < Children.size(); ++I)
      if (N.Children[I] != Children[I])
        return false;
    if (Kind == FormulaKind::Atom)
      return *N.Atom == *Atom;
    return true;
  }

  static void computeFreeVars(Formula &N) {
    std::vector<VarId> &Out = N.Free.Sorted;
    switch (N.Kind) {
    case FormulaKind::True:
    case FormulaKind::False:
      return;
    case FormulaKind::Atom:
      // Terms are sorted by VarId, so the collection is already a sorted
      // set.
      N.Atom->collectVars(Out);
      return;
    case FormulaKind::And:
    case FormulaKind::Or: {
      size_t Total = 0;
      for (const FormulaRef &C : N.Children)
        Total += C->freeVars().size();
      Out.reserve(Total);
      for (const FormulaRef &C : N.Children)
        Out.insert(Out.end(), C->freeVars().begin(), C->freeVars().end());
      std::sort(Out.begin(), Out.end());
      Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
      Out.shrink_to_fit();
      return;
    }
    case FormulaKind::Exists:
    case FormulaKind::Forall: {
      const FreeVarSet &Body = N.Children.front()->freeVars();
      Out.reserve(Body.size());
      for (VarId V : Body)
        if (V != N.BoundVar)
          Out.push_back(V);
      return;
    }
    }
  }

  Shard Shards[NumShards];
};

} // namespace mcsafe

Formula::InternStats Formula::internStats() {
  return FormulaInterner::stats();
}

FormulaGeneration::FormulaGeneration()
    : Interner(new FormulaInterner(
          NextSerial.fetch_add(1, std::memory_order_relaxed))),
      Saved(Current) {
  Current = Interner;
}

FormulaGeneration::~FormulaGeneration() {
  assert(Current == Interner && "FormulaGeneration ended out of order");
  Current = Saved;
  delete Interner;
}

FormulaInterner *FormulaGeneration::current() { return Current; }

uint64_t FormulaGeneration::currentSerial() {
  return Current ? Current->Serial : 0;
}

FormulaGenerationScope::FormulaGenerationScope(FormulaInterner *Target)
    : Saved(Current) {
  Current = Target;
}

FormulaGenerationScope::~FormulaGenerationScope() { Current = Saved; }

/// Whether \p F may memoize \p Result: only when Result lives at least as
/// long as F, i.e. in F's own generation or in the base.
static bool mayMemoize(const Formula &F, const FormulaRef &Result) {
  return Result->generation() == 0 ||
         Result->generation() == F.generation();
}

static FormulaRef internNode(FormulaKind Kind, VarId BoundVar,
                             std::optional<Constraint> Atom,
                             std::vector<FormulaRef> Children) {
  return FormulaInterner::intern(Kind, BoundVar, std::move(Atom),
                                 std::move(Children));
}

//===----------------------------------------------------------------------===//
// Smart constructors
//===----------------------------------------------------------------------===//

FormulaRef Formula::mkTrue() {
  static const FormulaRef T = FormulaInterner::base().TrueNode;
  return T;
}

FormulaRef Formula::mkFalse() {
  static const FormulaRef F = FormulaInterner::base().FalseNode;
  return F;
}

FormulaRef Formula::atom(Constraint C) {
  if (std::optional<bool> Truth = C.constantTruth())
    return *Truth ? mkTrue() : mkFalse();
  return internNode(FormulaKind::Atom, VarId(), std::move(C), {});
}

const Constraint &Formula::constraint() const {
  assert(Kind == FormulaKind::Atom && "not an atom");
  return *Atom;
}

namespace {

/// Flattens \p Children of kind \p K into \p Out, deduplicating (canonical
/// refs make that a pointer compare). Returns false if an absorbing child
/// (False for And, True for Or) was found.
bool flattenInto(FormulaKind K, const std::vector<FormulaRef> &Children,
                 std::vector<FormulaRef> &Out) {
  FormulaKind Absorbing =
      K == FormulaKind::And ? FormulaKind::False : FormulaKind::True;
  FormulaKind Neutral =
      K == FormulaKind::And ? FormulaKind::True : FormulaKind::False;
  for (const FormulaRef &C : Children) {
    assert(C && "null formula child");
    if (C->kind() == Absorbing)
      return false;
    if (C->kind() == Neutral)
      continue;
    if (C->kind() == K) {
      if (!flattenInto(K, C->children(), Out))
        return false;
      continue;
    }
    bool Duplicate = false;
    for (const FormulaRef &Existing : Out)
      if (Existing == C) {
        Duplicate = true;
        break;
      }
    if (!Duplicate)
      Out.push_back(C);
  }
  return true;
}

FormulaRef makeNary(FormulaKind K, std::vector<FormulaRef> Children) {
  std::vector<FormulaRef> Flat;
  if (!flattenInto(K, Children, Flat))
    return K == FormulaKind::And ? Formula::mkFalse() : Formula::mkTrue();
  if (Flat.empty())
    return K == FormulaKind::And ? Formula::mkTrue() : Formula::mkFalse();
  if (Flat.size() == 1)
    return Flat.front();
  return internNode(K, VarId(), {}, std::move(Flat));
}

} // namespace

FormulaRef Formula::conj(std::vector<FormulaRef> Children) {
  return makeNary(FormulaKind::And, std::move(Children));
}

FormulaRef Formula::disj(std::vector<FormulaRef> Children) {
  return makeNary(FormulaKind::Or, std::move(Children));
}

FormulaRef Formula::exists(VarId V, FormulaRef Body) {
  assert(Body && "null body");
  if (Body->isTrue() || Body->isFalse() || !Body->hasFreeVar(V))
    return Body;
  return internNode(FormulaKind::Exists, V, {}, {std::move(Body)});
}

FormulaRef Formula::forall(VarId V, FormulaRef Body) {
  assert(Body && "null body");
  if (Body->isTrue() || Body->isFalse() || !Body->hasFreeVar(V))
    return Body;
  return internNode(FormulaKind::Forall, V, {}, {std::move(Body)});
}

FormulaRef Formula::implies(const FormulaRef &A, FormulaRef B) {
  return disj2(negate(A), std::move(B));
}

namespace {

FormulaRef computeNegate(const FormulaRef &F) {
  switch (F->kind()) {
  case FormulaKind::True:
    return Formula::mkFalse();
  case FormulaKind::False:
    return Formula::mkTrue();
  case FormulaKind::Atom: {
    const Constraint &C = F->constraint();
    switch (C.kind()) {
    case ConstraintKind::GE:
      // not (e >= 0)  <=>  -e - 1 >= 0.
      return Formula::atom(Constraint::ge((-C.expr()).plusConstant(-1)));
    case ConstraintKind::EQ:
      // not (e == 0)  <=>  e >= 1  or  e <= -1.
      return Formula::disj2(
          Formula::atom(Constraint::ge(C.expr().plusConstant(-1))),
          Formula::atom(Constraint::ge((-C.expr()).plusConstant(-1))));
    case ConstraintKind::DIV:
      return Formula::atom(Constraint::notDivides(C.modulus(), C.expr()));
    case ConstraintKind::NDIV:
      return Formula::atom(Constraint::divides(C.modulus(), C.expr()));
    }
    assert(false && "unknown constraint kind");
    return Formula::mkTrue();
  }
  case FormulaKind::And:
  case FormulaKind::Or: {
    std::vector<FormulaRef> Negated;
    Negated.reserve(F->children().size());
    for (const FormulaRef &C : F->children())
      Negated.push_back(Formula::negate(C));
    return F->kind() == FormulaKind::And ? Formula::disj(std::move(Negated))
                                         : Formula::conj(std::move(Negated));
  }
  case FormulaKind::Exists:
    return Formula::forall(F->boundVar(),
                           Formula::negate(F->children().front()));
  case FormulaKind::Forall:
    return Formula::exists(F->boundVar(),
                           Formula::negate(F->children().front()));
  }
  assert(false && "unknown formula kind");
  return Formula::mkTrue();
}

} // namespace

FormulaRef Formula::negate(const FormulaRef &F) {
  assert(F && "null formula");
  if (const Formula *Memo = F->NegMemo.load(std::memory_order_acquire))
    return FormulaRef(Memo);
  FormulaRef Result = computeNegate(F);
  // Negation is a pure function onto canonical nodes, so concurrent
  // writers always store the same pointer.
  if (mayMemoize(*F, Result))
    F->NegMemo.store(Result.get(), std::memory_order_release);
  return Result;
}

//===----------------------------------------------------------------------===//
// Traversals
//===----------------------------------------------------------------------===//

FormulaRef Formula::substitute(const FormulaRef &F, VarId V,
                               const LinearExpr &Replacement) {
  // The memoized free-variable set makes the no-op case — most nodes of a
  // large conjunction — a binary search instead of a traversal. A bound
  // occurrence of V is not free, so this also covers the
  // quantifier-shadowing early-out.
  if (!F->hasFreeVar(V))
    return F;
  switch (F->kind()) {
  case FormulaKind::True:
  case FormulaKind::False:
    return F;
  case FormulaKind::Atom:
    return atom(F->constraint().substitute(V, Replacement));
  case FormulaKind::And:
  case FormulaKind::Or: {
    std::vector<FormulaRef> NewChildren;
    NewChildren.reserve(F->children().size());
    bool Changed = false;
    for (const FormulaRef &C : F->children()) {
      FormulaRef NewChild = substitute(C, V, Replacement);
      Changed |= NewChild != C;
      NewChildren.push_back(std::move(NewChild));
    }
    if (!Changed)
      return F;
    return F->kind() == FormulaKind::And ? conj(std::move(NewChildren))
                                         : disj(std::move(NewChildren));
  }
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    FormulaRef NewBody = substitute(F->children().front(), V, Replacement);
    if (NewBody == F->children().front())
      return F;
    return F->kind() == FormulaKind::Exists
               ? exists(F->boundVar(), std::move(NewBody))
               : forall(F->boundVar(), std::move(NewBody));
  }
  }
  assert(false && "unknown formula kind");
  return F;
}

std::string Formula::str() const {
  switch (Kind) {
  case FormulaKind::True:
    return "true";
  case FormulaKind::False:
    return "false";
  case FormulaKind::Atom:
    return Atom->str();
  case FormulaKind::And:
  case FormulaKind::Or: {
    std::ostringstream OS;
    const char *Sep = Kind == FormulaKind::And ? " && " : " || ";
    OS << '(';
    for (size_t I = 0; I < Children.size(); ++I) {
      if (I)
        OS << Sep;
      OS << Children[I]->str();
    }
    OS << ')';
    return OS.str();
  }
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    std::ostringstream OS;
    OS << (Kind == FormulaKind::Exists ? "exists " : "forall ")
       << varName(BoundVar) << ". " << Children.front()->str();
    return OS.str();
  }
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Simplification
//===----------------------------------------------------------------------===//

namespace {

/// Prunes duplicate / subsumed GE atoms among the atomic conjuncts of an
/// And node. Two GE atoms with identical variable terms keep only the
/// tighter one; an exact contradictory pair collapses to false.
FormulaRef pruneConjuncts(const FormulaRef &F) {
  if (F->kind() != FormulaKind::And)
    return F;
  // Map from the variable-term vector to the tightest GE atom seen.
  struct GeInfo {
    size_t ChildIndex;
    int64_t Constant;
  };
  std::map<std::vector<LinearExpr::Term>, GeInfo> TightestGe;
  std::vector<bool> Dropped(F->children().size(), false);

  for (size_t I = 0; I < F->children().size(); ++I) {
    const FormulaRef &C = F->children()[I];
    if (C->kind() != FormulaKind::Atom)
      continue;
    const Constraint &A = C->constraint();
    if (A.kind() != ConstraintKind::GE || A.isPoisoned())
      continue;
    std::vector<LinearExpr::Term> Sig(A.expr().terms().begin(),
                                      A.expr().terms().end());
    auto It = TightestGe.find(Sig);
    if (It == TightestGe.end()) {
      TightestGe.emplace(std::move(Sig),
                         GeInfo{I, A.expr().constantValue()});
      continue;
    }
    // e + c >= 0 means e >= -c: smaller c is tighter.
    if (A.expr().constantValue() < It->second.Constant) {
      Dropped[It->second.ChildIndex] = true;
      It->second = {I, A.expr().constantValue()};
    } else {
      Dropped[I] = true;
    }
  }

  std::vector<FormulaRef> Kept;
  bool Changed = false;
  for (size_t I = 0; I < F->children().size(); ++I) {
    if (Dropped[I]) {
      Changed = true;
      continue;
    }
    Kept.push_back(F->children()[I]);
  }
  if (!Changed)
    return F;
  return Formula::conj(std::move(Kept));
}

FormulaRef computeSimplify(const FormulaRef &F) {
  switch (F->kind()) {
  case FormulaKind::True:
  case FormulaKind::False:
  case FormulaKind::Atom:
    return F;
  case FormulaKind::And:
  case FormulaKind::Or: {
    std::vector<FormulaRef> NewChildren;
    NewChildren.reserve(F->children().size());
    for (const FormulaRef &C : F->children())
      NewChildren.push_back(simplify(C));
    FormulaRef Rebuilt = F->kind() == FormulaKind::And
                             ? Formula::conj(std::move(NewChildren))
                             : Formula::disj(std::move(NewChildren));
    return pruneConjuncts(Rebuilt);
  }
  case FormulaKind::Exists:
    return Formula::exists(F->boundVar(), simplify(F->children().front()));
  case FormulaKind::Forall:
    return Formula::forall(F->boundVar(), simplify(F->children().front()));
  }
  return F;
}

} // namespace

FormulaRef mcsafe::simplify(const FormulaRef &F) {
  if (const Formula *Memo = F->SimpMemo.load(std::memory_order_acquire))
    return FormulaRef(Memo);
  FormulaRef Result = computeSimplify(F);
  if (mayMemoize(*F, Result))
    F->SimpMemo.store(Result.get(), std::memory_order_release);
  return Result;
}
