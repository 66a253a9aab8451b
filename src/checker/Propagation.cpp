//===- Propagation.cpp ----------------------------------------------------===//

#include "checker/Propagation.h"

#include "analysis/KnownBits.h"
#include "support/CheckedInt.h"
#include "support/Governor.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::typestate;
using namespace mcsafe::sparc;
using mcsafe::analysis::KnownBits;
using mcsafe::cfg::CfgEdge;
using mcsafe::cfg::CfgNode;
using mcsafe::cfg::EdgeKind;
using mcsafe::cfg::NodeId;
using mcsafe::cfg::NodeKind;

namespace {

Typestate immTypestate(int64_t Value) {
  Typestate Ts;
  Ts.Type = TypeFactory::int32();
  Ts.S = State::initConst(Value);
  Ts.A = Access::o();
  return Ts;
}

Typestate uninitTypestate() {
  Typestate Ts;
  Ts.Type = TypeFactory::top();
  Ts.S = State::uninit();
  Ts.A = Access::full();
  return Ts;
}

/// A value that cannot be used for anything (failed resolution).
Typestate poisonTypestate() {
  Typestate Ts;
  Ts.Type = TypeFactory::bottom();
  Ts.S = State::uninit();
  Ts.A = Access::none();
  return Ts;
}

Typestate initScalar(std::optional<int64_t> Const = std::nullopt) {
  Typestate Ts;
  Ts.Type = TypeFactory::int32();
  Ts.S = Const ? State::initConst(*Const) : State::init();
  Ts.A = Access::o();
  return Ts;
}

Typestate initScalarRange(std::optional<int64_t> Lo,
                          std::optional<int64_t> Hi) {
  Typestate Ts;
  Ts.Type = TypeFactory::int32();
  Ts.S = State::initRange(Lo, Hi);
  Ts.A = Access::o();
  return Ts;
}

/// Known bits of an operand's state (top unless an Init scalar).
KnownBits stateBits(const State &S) {
  return S.isInit() ? S.bits() : KnownBits::top();
}

/// An initialized int32 scalar carrying \p KB cross-refined against the
/// interval; falls back to the plain interval when the known-bits domain
/// is toggled off. \p Exact32 marks producers whose result is the signed
/// reading of its 32-bit pattern (bitwise ops, shifts).
Typestate initScalarBits(const CheckContext &Ctx, KnownBits KB,
                         std::optional<int64_t> Lo = std::nullopt,
                         std::optional<int64_t> Hi = std::nullopt,
                         bool Exact32 = false) {
  if (!Ctx.KnownBits)
    return initScalarRange(Lo, Hi);
  analysis::BitsRange R = analysis::crossRefine(KB, Lo, Hi, Exact32);
  Typestate Ts;
  Ts.Type = TypeFactory::int32();
  Ts.S = State::initBits(R.Bits, R.Lo, R.Hi, Exact32);
  Ts.A = Access::o();
  return Ts;
}

/// Interval addition/subtraction: (x + y) and (x - y) bounds, dropping a
/// bound on missing input or overflow.
std::optional<int64_t> boundAdd(std::optional<int64_t> A,
                                std::optional<int64_t> B) {
  if (!A || !B)
    return std::nullopt;
  return checkedAdd(*A, *B);
}
std::optional<int64_t> boundSub(std::optional<int64_t> A,
                                std::optional<int64_t> B) {
  if (!A || !B)
    return std::nullopt;
  return checkedSub(*A, *B);
}
/// Scales a bound by a positive factor.
std::optional<int64_t> boundScale(std::optional<int64_t> A,
                                  int64_t Factor) {
  if (!A)
    return std::nullopt;
  return checkedMul(*A, Factor);
}

/// The second operand's typestate (imm or rs2).
Typestate operandTs(const AbstractStore &In, int32_t Depth,
                    const Instruction &Inst) {
  if (Inst.UsesImm)
    return immTypestate(Inst.Imm);
  return In.reg(Depth, Inst.Rs2);
}

/// Looks for an embedded-array child of \p Loc starting exactly at
/// \p Offset; returns InvalidLoc otherwise.
AbsLocId embeddedArrayAt(const LocationTable &Locs, AbsLocId Loc,
                         int64_t Offset) {
  for (const auto &[FieldOffset, Child] : Locs.loc(Loc).Fields) {
    if (FieldOffset != Offset)
      continue;
    const AbstractLocation &ChildLoc = Locs.loc(Child);
    if (ChildLoc.Summary && ChildLoc.extent() > ChildLoc.Size)
      return Child;
  }
  return InvalidLoc;
}

/// Result of evalAdd: the value typestate plus the resolved usage.
struct AddResult {
  Typestate Ts;
  AddUsage Usage = AddUsage::None;
  /// For ArrayIndex: which operand was the base (true = A/rs1).
  bool BaseIsFirst = true;
};

AddResult evalAdd(const CheckContext &Ctx, const Typestate &A,
                  const Typestate &B, bool IsSub) {
  AddResult R;

  auto ScalarResult = [&](const Typestate &X, const Typestate &Y) {
    R.Usage = AddUsage::Scalar;
    if (!X.S.isInitialized() || !Y.S.isInitialized()) {
      R.Ts = uninitTypestate();
      return;
    }
    // Interval arithmetic: (x+y) or (x-y), with carry-aware known-bits
    // propagation alongside.
    std::optional<int64_t> Lo, Hi;
    if (IsSub) {
      Lo = boundSub(X.S.lower(), Y.S.upper());
      Hi = boundSub(X.S.upper(), Y.S.lower());
    } else {
      Lo = boundAdd(X.S.lower(), Y.S.lower());
      Hi = boundAdd(X.S.upper(), Y.S.upper());
    }
    KnownBits KB = IsSub ? KnownBits::sub(stateBits(X.S), stateBits(Y.S))
                         : KnownBits::add(stateBits(X.S), stateBits(Y.S));
    R.Ts = initScalarBits(Ctx, KB, Lo, Hi);
  };

  auto PointerPlus = [&](const Typestate &Ptr, const Typestate &Idx) {
    const TypeRef &T = Ptr.Type;
    if (T->kind() == TypeKind::ArrayBase ||
        T->kind() == TypeKind::ArrayInterior) {
      // Array-index calculation (paper Table 1, row 2): the result may
      // point to any element; type becomes t(n].
      R.Usage = AddUsage::ArrayIndex;
      R.Ts.Type = T->kind() == TypeKind::ArrayBase
                      ? TypeFactory::arrayInterior(T->pointee(),
                                                   T->arraySize())
                      : T;
      R.Ts.S = Ptr.S;
      R.Ts.A = Ptr.A;
      return;
    }
    // Ptr(T) displaced by a constant: field-address computation.
    if (T->kind() == TypeKind::Ptr && Idx.S.constant()) {
      int64_t Disp = (IsSub ? -1 : 1) * *Idx.S.constant();
      R.Usage = AddUsage::PtrDisp;
      std::set<PtrTarget> NewTargets;
      for (const PtrTarget &Target : Ptr.S.targets())
        NewTargets.insert(PtrTarget{Target.Loc, Target.Offset + Disp});
      // If the (single) displaced target lands on the start of an
      // embedded array, the value becomes a base pointer to it.
      if (NewTargets.size() == 1 && !Ptr.S.mayBeNull()) {
        const PtrTarget &Target = *NewTargets.begin();
        AbsLocId Arr =
            embeddedArrayAt(Ctx.Locs, Target.Loc, Target.Offset);
        if (Arr != InvalidLoc) {
          const AbstractLocation &ArrLoc = Ctx.Locs.loc(Arr);
          R.Ts.Type = TypeFactory::arrayBase(
              ArrLoc.Type,
              ArraySize::literal(ArrLoc.extent() / ArrLoc.Size));
          R.Ts.S = State::pointsToLoc(Arr, 0);
          R.Ts.A = Ptr.A;
          return;
        }
      }
      R.Ts.Type = T;
      R.Ts.S = State::pointsTo(std::move(NewTargets), Ptr.S.mayBeNull());
      R.Ts.A = Ptr.A;
      return;
    }
    // Pointer plus an unknown non-index value: unusable.
    R.Usage = AddUsage::None;
    R.Ts = poisonTypestate();
  };

  bool APtr = A.Type->isPointerLike() && A.S.isPointsTo();
  bool BPtr = B.Type->isPointerLike() && B.S.isPointsTo();
  if (APtr && !BPtr) {
    PointerPlus(A, B);
    R.BaseIsFirst = true;
    return R;
  }
  if (BPtr && !APtr && !IsSub) {
    PointerPlus(B, A);
    R.BaseIsFirst = false;
    return R;
  }
  if (APtr && BPtr) {
    // Pointer difference yields an integer; pointer sum is meaningless.
    if (IsSub) {
      R.Usage = AddUsage::Scalar;
      R.Ts = initScalar();
    } else {
      R.Usage = AddUsage::None;
      R.Ts = poisonTypestate();
    }
    return R;
  }
  ScalarResult(A, B);
  return R;
}

/// Shared address resolution for loads/stores. \p AccessSize is the
/// load/store width.
MemFacts resolveMem(const CheckContext &Ctx, const AbstractStore &In,
                    int32_t Depth, const Instruction &Inst,
                    uint32_t AccessSize) {
  MemFacts F;
  Typestate Base = In.reg(Depth, Inst.Rs1);
  Reg BaseReg = Inst.Rs1;
  bool IndexIsImm = Inst.UsesImm;
  int64_t IndexImm = Inst.Imm;
  Reg IndexReg = Inst.Rs2;

  // When the architectural rs1 is not the pointer, the roles may be
  // swapped in the reg+reg form.
  if (!Base.S.isPointsTo() && !Inst.UsesImm) {
    Typestate Alt = In.reg(Depth, Inst.Rs2);
    if (Alt.S.isPointsTo()) {
      Base = Alt;
      BaseReg = Inst.Rs2;
      IndexReg = Inst.Rs1;
    }
  }
  // A register index whose value is a known constant acts as an
  // immediate (common for %g0: [reg + %g0]).
  if (!IndexIsImm) {
    Typestate IdxTs = In.reg(Depth, IndexReg);
    if (IdxTs.S.constant()) {
      IndexIsImm = true;
      IndexImm = *IdxTs.S.constant();
    }
  }

  F.BaseReg = BaseReg;
  F.BaseDepth = Depth;
  F.IndexIsImm = IndexIsImm;
  F.IndexImm = IndexImm;
  F.IndexReg = IndexReg;

  if (!Base.S.isPointsTo())
    return F; // Unresolved: base is not a valid pointer.
  F.BaseMayBeNull = Base.S.mayBeNull();

  const TypeRef &T = Base.Type;
  if (T->kind() == TypeKind::ArrayBase ||
      T->kind() == TypeKind::ArrayInterior) {
    F.ArrayAccess = true;
    F.Interior = T->kind() == TypeKind::ArrayInterior;
    F.Bound = T->arraySize();
    F.ElemSize = T->pointee()->sizeInBytes();
    if (F.ElemSize != AccessSize)
      return F; // Element/access width mismatch: unresolved.
    // Each points-to target must resolve to its element summary. The
    // index (even a constant one) is deliberately ignored here: whether
    // it is in bounds and aligned is the global-verification phase's
    // question, not an addressing question.
    for (const PtrTarget &Target : Base.S.targets()) {
      AbsLocId Leaf =
          Ctx.Locs.resolveField(Target.Loc, Target.Offset, AccessSize);
      if (Leaf == InvalidLoc)
        return F;
      F.Leaves.push_back(Leaf);
    }
    if (F.Leaves.empty())
      return F;
    F.Unresolved = false;
    F.Strong = false; // Array summaries only admit weak updates.
    return F;
  }

  if (T->kind() == TypeKind::Ptr) {
    if (!IndexIsImm)
      return F; // Register offsets into non-array memory: unresolved.
    for (const PtrTarget &Target : Base.S.targets()) {
      AbsLocId Leaf = Ctx.Locs.resolveField(
          Target.Loc, Target.Offset + IndexImm, AccessSize);
      if (Leaf == InvalidLoc)
        return F;
      F.Leaves.push_back(Leaf);
    }
    if (F.Leaves.empty())
      return F;
    std::sort(F.Leaves.begin(), F.Leaves.end());
    F.Leaves.erase(std::unique(F.Leaves.begin(), F.Leaves.end()),
                   F.Leaves.end());
    F.Unresolved = false;
    F.Strong =
        F.Leaves.size() == 1 && !Ctx.Locs.loc(F.Leaves[0]).Summary;
    return F;
  }
  return F;
}

/// Resolves the points-to state described by a policy StateSpec (used for
/// trusted-call return values).
State resolveSummaryState(const CheckContext &Ctx,
                          const policy::StateSpec &Spec) {
  switch (Spec.K) {
  case policy::StateSpec::Kind::Uninit:
    return State::uninit();
  case policy::StateSpec::Kind::Init:
    return Spec.Const ? State::initConst(*Spec.Const) : State::init();
  case policy::StateSpec::Kind::Null:
    return State::nullPtr();
  case policy::StateSpec::Kind::PointsTo: {
    std::set<PtrTarget> Targets;
    for (const auto &[Name, Offset] : Spec.Targets) {
      AbsLocId Id = Ctx.Locs.lookup(Name);
      if (Id != InvalidLoc)
        Targets.insert(PtrTarget{Id, Offset});
    }
    return State::pointsTo(std::move(Targets), Spec.MayBeNull);
  }
  }
  return State::uninit();
}

} // namespace

InstFacts checker::resolveInst(const CheckContext &Ctx, NodeId Id,
                               const AbstractStore &In) {
  InstFacts Facts;
  const CfgNode &Node = Ctx.Graph.node(Id);
  if (Node.Kind != NodeKind::Normal || In.isTop())
    return Facts;
  const Instruction &Inst = Ctx.Graph.inst(Id);
  int32_t Depth = Node.WindowDepth;

  if (isLoad(Inst.Op) || isStore(Inst.Op)) {
    Facts.Mem = resolveMem(Ctx, In, Depth, Inst, memAccessSize(Inst.Op));
    return Facts;
  }
  if (Inst.Op == Opcode::ADD || Inst.Op == Opcode::SUB ||
      Inst.Op == Opcode::ADDCC || Inst.Op == Opcode::SUBCC) {
    Typestate A = In.reg(Depth, Inst.Rs1);
    Typestate B = operandTs(In, Depth, Inst);
    bool IsSub = Inst.Op == Opcode::SUB || Inst.Op == Opcode::SUBCC;
    AddResult R = evalAdd(Ctx, A, B, IsSub);
    Facts.Add = R.Usage;
    if (R.Usage == AddUsage::ArrayIndex) {
      const Typestate &Base = R.BaseIsFirst ? A : B;
      Facts.Mem.ArrayAccess = true;
      Facts.Mem.Interior = Base.Type->kind() == TypeKind::ArrayInterior;
      Facts.Mem.Bound = Base.Type->arraySize();
      Facts.Mem.ElemSize = Base.Type->pointee()->sizeInBytes();
      Facts.Mem.BaseReg = R.BaseIsFirst ? Inst.Rs1 : Inst.Rs2;
      Facts.Mem.BaseDepth = Depth;
      Facts.Mem.BaseMayBeNull = Base.S.mayBeNull();
      Facts.Mem.Unresolved = false;
      if (R.BaseIsFirst) {
        Facts.Mem.IndexIsImm = Inst.UsesImm;
        Facts.Mem.IndexImm = Inst.Imm;
        Facts.Mem.IndexReg = Inst.Rs2;
      } else {
        Facts.Mem.IndexIsImm = false;
        Facts.Mem.IndexReg = Inst.Rs1;
      }
    }
    return Facts;
  }
  return Facts;
}

AbstractStore checker::transfer(const CheckContext &Ctx, NodeId Id,
                                const AbstractStore &In) {
  if (In.isTop())
    return In; // Strict in Top: unvisited stays unvisited.
  AbstractStore Out = In;
  const CfgNode &Node = Ctx.Graph.node(Id);
  int32_t Depth = Node.WindowDepth;

  // --- Trusted-call summary nodes. -----------------------------------------
  if (Node.Kind == NodeKind::TrustedCall) {
    const policy::TrustedSummary *Summary =
        Ctx.Pol->findTrusted(Node.TrustedCallee);
    // Caller-saved registers are clobbered.
    // SPARC calling convention: the out registers and %g1 are
    // caller-saved; %g2-%g4 are application registers the host's
    // functions preserve.
    static const uint8_t Clobbered[] = {8, 9, 10, 11, 12, 13, 15, 1};
    for (uint8_t R : Clobbered)
      Out.setReg(Depth, Reg(R), uninitTypestate());
    Typestate Icc;
    Icc.Type = TypeFactory::int32();
    Icc.S = State::uninit();
    Icc.A = Access::o();
    Out.setIcc(Icc);
    Out.setIccOrigin(std::nullopt);
    if (Summary) {
      if (Summary->ReturnType) {
        Typestate Ret;
        Ret.Type = Summary->ReturnType;
        Ret.S = resolveSummaryState(Ctx, Summary->ReturnState);
        Ret.A = Summary->ReturnAccess;
        Out.setReg(Depth, O0, Ret);
      }
      for (const std::string &Written : Summary->Writes) {
        AbsLocId Target = Ctx.Locs.lookup(Written);
        if (Target == InvalidLoc)
          continue;
        std::vector<AbsLocId> Leaves;
        Ctx.Locs.collectLeaves(Target, Leaves);
        for (AbsLocId Leaf : Leaves) {
          Typestate New;
          New.Type = Ctx.Locs.loc(Leaf).Type;
          New.S = State::init();
          auto It = Ctx.GrantedAccess.find(Leaf);
          New.A = It == Ctx.GrantedAccess.end() ? Access::o() : It->second;
          // Same strength rules as stores: non-summary locations receive
          // the written state exactly; summaries only weaken.
          if (Ctx.Locs.loc(Leaf).Summary)
            Out.setLoc(Leaf, Typestate::meet(Out.loc(Leaf), New));
          else
            Out.setLoc(Leaf, New);
        }
      }
    }
    return Out;
  }
  if (Node.Kind != NodeKind::Normal)
    return Out;

  const Instruction &Inst = Ctx.Graph.inst(Id);
  switch (Inst.Op) {
  // --- Moves, logic, shifts. -----------------------------------------------
  case Opcode::OR:
  case Opcode::ORCC: {
    Typestate A = In.reg(Depth, Inst.Rs1);
    Typestate B = operandTs(In, Depth, Inst);
    Typestate Result;
    if (Inst.Rs1.isZero()) {
      Result = B; // mov.
    } else if (!Inst.UsesImm && Inst.Rs2.isZero()) {
      Result = A;
    } else if (Inst.UsesImm && Inst.Imm == 0) {
      Result = A;
    } else if (A.S.constant() && B.S.constant()) {
      Result = initScalar(*A.S.constant() | *B.S.constant());
    } else if (A.S.isInitialized() && B.S.isInitialized()) {
      Result = initScalarBits(
          Ctx, KnownBits::bitOr(stateBits(A.S), stateBits(B.S)),
          std::nullopt, std::nullopt, /*Exact32=*/true);
    } else {
      Result = uninitTypestate();
    }
    Out.setReg(Depth, Inst.Rd, Result);
    if (Inst.Op == Opcode::ORCC) {
      Out.setIcc(initScalar());
      // tst R (orcc R,%g0,%g0) allows null-test refinement.
      if (Inst.Rd.isZero() && !Inst.UsesImm && Inst.Rs2.isZero())
        Out.setIccOrigin(AbstractStore::IccOrigin{Depth, Inst.Rs1, 0});
      else
        Out.setIccOrigin(std::nullopt);
    }
    break;
  }
  case Opcode::AND:
  case Opcode::ANDN:
  case Opcode::XOR:
  case Opcode::XNOR:
  case Opcode::ORN:
  case Opcode::ANDCC:
  case Opcode::XORCC: {
    Typestate A = In.reg(Depth, Inst.Rs1);
    Typestate B = operandTs(In, Depth, Inst);
    std::optional<int64_t> Folded;
    if (A.S.constant() && B.S.constant()) {
      int64_t X = *A.S.constant(), Y = *B.S.constant();
      switch (Inst.Op) {
      case Opcode::AND:
      case Opcode::ANDCC:
        Folded = X & Y;
        break;
      case Opcode::ANDN:
        Folded = X & ~Y;
        break;
      case Opcode::XOR:
      case Opcode::XORCC:
        Folded = X ^ Y;
        break;
      case Opcode::XNOR:
        Folded = ~(X ^ Y);
        break;
      case Opcode::ORN:
        Folded = X | ~Y;
        break;
      default:
        break;
      }
    }
    if (!A.S.isInitialized() || !B.S.isInitialized()) {
      Out.setReg(Depth, Inst.Rd, uninitTypestate());
    } else if (Folded) {
      Out.setReg(Depth, Inst.Rd, initScalar(Folded));
    } else {
      KnownBits KA = stateBits(A.S), KB = stateBits(B.S);
      KnownBits Result;
      switch (Inst.Op) {
      case Opcode::AND:
      case Opcode::ANDCC:
        Result = KnownBits::bitAnd(KA, KB);
        break;
      case Opcode::ANDN:
        Result = KnownBits::bitAndNot(KA, KB);
        break;
      case Opcode::XOR:
      case Opcode::XORCC:
        Result = KnownBits::bitXor(KA, KB);
        break;
      case Opcode::XNOR:
        Result = KnownBits::bitXnor(KA, KB);
        break;
      case Opcode::ORN:
        Result = KnownBits::bitOrNot(KA, KB);
        break;
      default:
        break;
      }
      // x & m with m >= 0 lies in [0, m].
      std::optional<int64_t> Lo, Hi;
      if ((Inst.Op == Opcode::AND || Inst.Op == Opcode::ANDCC) &&
          ((B.S.constant() && *B.S.constant() >= 0) ||
           (A.S.constant() && *A.S.constant() >= 0))) {
        Lo = 0;
        Hi = B.S.constant() && *B.S.constant() >= 0 ? *B.S.constant()
                                                    : *A.S.constant();
      }
      // A mask constant tracked as an int64 beyond INT32_MAX (sethi
      // material) makes [0, m] an unwrapped bound that can disagree
      // with the signed reading of the pattern; drop the exactness
      // claim rather than let crossRefine contradict the two.
      Out.setReg(Depth, Inst.Rd,
                 initScalarBits(Ctx, Result, Lo, Hi,
                                /*Exact32=*/!Hi || *Hi <= INT32_MAX));
    }
    if (setsIcc(Inst.Op)) {
      Out.setIcc(initScalar());
      Out.setIccOrigin(std::nullopt);
    }
    break;
  }
  case Opcode::SLL:
  case Opcode::SRL:
  case Opcode::SRA:
  case Opcode::UMUL:
  case Opcode::SMUL:
  case Opcode::UDIV:
  case Opcode::SDIV: {
    Typestate A = In.reg(Depth, Inst.Rs1);
    Typestate B = operandTs(In, Depth, Inst);
    std::optional<int64_t> Folded;
    if (A.S.constant() && B.S.constant()) {
      int64_t X = *A.S.constant(), Y = *B.S.constant();
      switch (Inst.Op) {
      // Shift folds mask the count through sparc::shiftCount, exactly
      // like the interpreter (a shift by 33 shifts by 1).
      case Opcode::SLL:
        Folded = static_cast<int64_t>(static_cast<int32_t>(
            static_cast<uint32_t>(X) << shiftCount(Y)));
        break;
      case Opcode::SRL:
        Folded = static_cast<int64_t>(static_cast<uint32_t>(X) >>
                                      shiftCount(Y));
        break;
      case Opcode::SRA:
        Folded = static_cast<int64_t>(static_cast<int32_t>(X) >>
                                      shiftCount(Y));
        break;
      case Opcode::UMUL:
      case Opcode::SMUL:
        Folded = X * Y;
        break;
      case Opcode::UDIV:
      case Opcode::SDIV:
        if (Y != 0)
          Folded = X / Y;
        break;
      default:
        break;
      }
    }
    if (!A.S.isInitialized() || !B.S.isInitialized()) {
      Out.setReg(Depth, Inst.Rd, uninitTypestate());
      break;
    }
    if (Folded) {
      Out.setReg(Depth, Inst.Rd, initScalar(Folded));
      break;
    }
    // Interval propagation for shifts/multiplies by a known positive
    // constant (monotone scalings). Shift distances go through
    // sparc::shiftCount so a count of 33 scales by 2, like the machine.
    std::optional<int64_t> Lo, Hi;
    std::optional<int64_t> Factor;
    if (Inst.Op == Opcode::SLL && B.S.constant() &&
        shiftCount(*B.S.constant()) < 31)
      Factor = int64_t(1) << shiftCount(*B.S.constant());
    else if ((Inst.Op == Opcode::SMUL || Inst.Op == Opcode::UMUL) &&
             B.S.constant() && *B.S.constant() > 0)
      Factor = *B.S.constant();
    if (Factor) {
      Lo = boundScale(A.S.lower(), *Factor);
      Hi = boundScale(A.S.upper(), *Factor);
    } else if (Inst.Op == Opcode::SRA && B.S.constant()) {
      // Arithmetic right shift is floorDiv by 2^k: monotone.
      int64_t K = shiftCount(*B.S.constant());
      if (A.S.lower())
        Lo = floorDiv(*A.S.lower(), int64_t(1) << K);
      if (A.S.upper())
        Hi = floorDiv(*A.S.upper(), int64_t(1) << K);
    }
    KnownBits KB;
    switch (Inst.Op) {
    case Opcode::SLL:
      KB = KnownBits::shl(stateBits(A.S), stateBits(B.S));
      break;
    case Opcode::SRL:
      KB = KnownBits::lshr(stateBits(A.S), stateBits(B.S));
      break;
    case Opcode::SRA:
      KB = KnownBits::ashr(stateBits(A.S), stateBits(B.S));
      break;
    default:
      break; // Multiplies and divides keep top bits.
    }
    // Exact32 (value == signed-int32 reading of the result pattern)
    // needs two guards for shifts. An effective count of 0 (imm 32/64
    // mask to 0; an abstract count may be compatible with 0) passes the
    // operand through unchanged, so the claim only holds if the operand
    // already made it. And the SLL/SRA bounds above are unwrapped
    // mathematical scalings: pairing them with the pattern claim is
    // only sound when they provably stay inside int32 — e.g. sll of
    // [2^29, 2^29+3] by 2 wraps negative on the machine while the
    // scaled bounds escape past INT32_MAX, and the claim would let
    // crossRefine turn the pattern's known sign bit plus the escaped
    // bounds into a false unreachability witness.
    bool CountNonzero = (stateBits(B.S).Ones & 31u) != 0;
    auto InInt32 = [](std::optional<int64_t> L, std::optional<int64_t> H) {
      return L && H && *L >= INT32_MIN && *H <= INT32_MAX;
    };
    bool Exact32 = false;
    switch (Inst.Op) {
    case Opcode::SRL:
      // No scaled bounds are attached: a nonzero count clears the sign
      // bit, otherwise the result is the operand and must itself be
      // exact (flagged, or provably inside int32).
      Exact32 = CountNonzero || A.S.pattern32() ||
                InInt32(A.S.lower(), A.S.upper());
      break;
    case Opcode::SLL:
    case Opcode::SRA:
      // With bounds attached, both must stay inside int32 (this also
      // covers the count-0 pass-through, whose bounds are the
      // operand's). Without bounds there is no unwrapped claim to
      // conflict with, so only the pass-through case needs the operand
      // to be exact.
      Exact32 = Lo || Hi ? InInt32(Lo, Hi)
                         : CountNonzero || A.S.pattern32();
      break;
    default:
      break; // Multiplies and divides never claim exactness.
    }
    Out.setReg(Depth, Inst.Rd, initScalarBits(Ctx, KB, Lo, Hi, Exact32));
    break;
  }
  case Opcode::SETHI:
    Out.setReg(Depth, Inst.Rd,
               initScalar(static_cast<int64_t>(Inst.Imm) << 10));
    break;

  // --- Add / subtract (overloaded). ---------------------------------------
  case Opcode::ADD:
  case Opcode::SUB:
  case Opcode::ADDCC:
  case Opcode::SUBCC: {
    Typestate A = In.reg(Depth, Inst.Rs1);
    Typestate B = operandTs(In, Depth, Inst);
    bool IsSub = Inst.Op == Opcode::SUB || Inst.Op == Opcode::SUBCC;
    AddResult R = evalAdd(Ctx, A, B, IsSub);
    Out.setReg(Depth, Inst.Rd, R.Ts);
    if (setsIcc(Inst.Op)) {
      Out.setIcc(initScalar());
      // cmp R, imm / cmp R, %g0: record the origin for edge refinement.
      if (Inst.Op == Opcode::SUBCC && Inst.Rd.isZero()) {
        std::optional<int64_t> CmpImm;
        if (Inst.UsesImm)
          CmpImm = Inst.Imm;
        else if (Inst.Rs2.isZero())
          CmpImm = 0;
        else if (Typestate Rhs = In.reg(Depth, Inst.Rs2);
                 Rhs.S.constant())
          CmpImm = Rhs.S.constant();
        if (CmpImm)
          Out.setIccOrigin(
              AbstractStore::IccOrigin{Depth, Inst.Rs1, *CmpImm});
        else
          Out.setIccOrigin(std::nullopt);
      } else {
        Out.setIccOrigin(std::nullopt);
      }
    }
    break;
  }

  // --- Memory. --------------------------------------------------------------
  case Opcode::LD:
  case Opcode::LDSB:
  case Opcode::LDSH:
  case Opcode::LDUB:
  case Opcode::LDUH: {
    MemFacts F = resolveMem(Ctx, In, Depth, Inst, memAccessSize(Inst.Op));
    if (F.Unresolved) {
      Out.setReg(Depth, Inst.Rd, poisonTypestate());
      break;
    }
    Typestate Loaded = Typestate::top();
    for (AbsLocId Leaf : F.Leaves)
      Loaded = Typestate::meet(Loaded, In.loc(Leaf));
    Out.setReg(Depth, Inst.Rd, Loaded);
    break;
  }
  case Opcode::ST:
  case Opcode::STB:
  case Opcode::STH: {
    MemFacts F = resolveMem(Ctx, In, Depth, Inst, memAccessSize(Inst.Op));
    if (F.Unresolved)
      break; // The violation is reported by annotation/local checks.
    Typestate Value = In.reg(Depth, Inst.Rd);
    for (AbsLocId Leaf : F.Leaves) {
      Typestate New;
      New.Type = Ctx.Locs.loc(Leaf).Type; // Locations keep their type.
      New.S = Value.S;
      New.A = Value.A;
      // Storing the integer constant 0 into a pointer-typed location is
      // a null-pointer store.
      if (New.Type->isPointerLike() && Value.S.constant() &&
          *Value.S.constant() == 0)
        New.S = State::nullPtr();
      if (F.Strong)
        Out.setLoc(Leaf, New);
      else
        Out.setLoc(Leaf, Typestate::meet(Out.loc(Leaf), New));
    }
    break;
  }

  // --- Register windows. ----------------------------------------------------
  case Opcode::SAVE: {
    // Window shift: new %i = old %o; new %l and %o are uninitialized.
    for (uint8_t K = 0; K < 8; ++K)
      Out.setReg(Depth + 1, Reg(24 + K), In.reg(Depth, Reg(8 + K)));
    for (uint8_t K = 0; K < 8; ++K)
      Out.setReg(Depth + 1, Reg(16 + K), uninitTypestate());
    for (uint8_t K = 0; K < 8; ++K)
      Out.setReg(Depth + 1, Reg(8 + K), uninitTypestate());
    // The destination (normally the new %sp) is rs1 + operand computed in
    // the old window; with a frame annotation it points at the frame.
    auto FrameIt = Ctx.FrameLocs.find(Id);
    if (FrameIt != Ctx.FrameLocs.end() && Inst.Rd == SP) {
      Typestate Sp;
      const AbstractLocation &Frame = Ctx.Locs.loc(FrameIt->second);
      Sp.Type = TypeFactory::ptr(Frame.Type);
      Sp.S = State::pointsToLoc(FrameIt->second, 0);
      Sp.A = Access::fo();
      Out.setReg(Depth + 1, SP, Sp);
      // The new %fp (= the caller's %sp) addresses the frame from one
      // past its end: [%fp - k] resolves at offset Size - k.
      Typestate Fp;
      Fp.Type = TypeFactory::ptr(Frame.Type);
      Fp.S = State::pointsToLoc(FrameIt->second, Frame.Size);
      Fp.A = Access::fo();
      Out.setReg(Depth + 1, FP, Fp);
    } else if (!Inst.Rd.isZero()) {
      Typestate A = In.reg(Depth, Inst.Rs1);
      Typestate B = operandTs(In, Depth, Inst);
      Out.setReg(Depth + 1, Inst.Rd, evalAdd(Ctx, A, B, false).Ts);
    }
    break;
  }
  case Opcode::RESTORE: {
    Typestate Result;
    bool WriteResult = !Inst.Rd.isZero();
    if (WriteResult) {
      Typestate A = In.reg(Depth, Inst.Rs1);
      Typestate B = operandTs(In, Depth, Inst);
      Result = evalAdd(Ctx, A, B, false).Ts;
    }
    // Window shift back: caller's %o = callee's %i.
    for (uint8_t K = 0; K < 8; ++K)
      Out.setReg(Depth - 1, Reg(8 + K), In.reg(Depth, Reg(24 + K)));
    // The callee window's contents are gone.
    for (uint8_t K = 8; K < 32; ++K)
      Out.setReg(Depth, Reg(K), AbstractStore::defaultTypestate());
    if (WriteResult)
      Out.setReg(Depth - 1, Inst.Rd, Result);
    break;
  }

  // --- Control transfer. -----------------------------------------------------
  case Opcode::CALL:
    Out.setReg(Depth, O7, initScalar());
    break;
  case Opcode::JMPL:
    if (!Inst.Rd.isZero())
      Out.setReg(Depth, Inst.Rd, initScalar());
    break;
  default:
    break; // Branches and nops do not change the store.
  }
  return Out;
}

AbstractStore checker::refineEdge(const CheckContext &Ctx,
                                  const AbstractStore &Out,
                                  const CfgEdge &Edge) {
  if (Out.isTop())
    return Out;
  if (Edge.Kind == EdgeKind::Flow)
    return Out;
  const std::optional<AbstractStore::IccOrigin> &Origin = Out.iccOrigin();
  if (!Origin)
    return Out;

  // Which relation does this edge assert about (R - Imm)?
  enum class Rel { None, Eq, Ne, Lt, Le, Gt, Ge };
  Rel Relation = Rel::None;
  bool Taken = Edge.Kind == EdgeKind::Taken;
  auto Pick = [Taken](Rel T, Rel N) { return Taken ? T : N; };
  switch (Edge.BranchOp) {
  case Opcode::BE:
    Relation = Pick(Rel::Eq, Rel::Ne);
    break;
  case Opcode::BNE:
    Relation = Pick(Rel::Ne, Rel::Eq);
    break;
  case Opcode::BL:
  case Opcode::BNEG:
    Relation = Pick(Rel::Lt, Rel::Ge);
    break;
  case Opcode::BGE:
  case Opcode::BPOS:
    Relation = Pick(Rel::Ge, Rel::Lt);
    break;
  case Opcode::BG:
    Relation = Pick(Rel::Gt, Rel::Le);
    break;
  case Opcode::BLE:
    Relation = Pick(Rel::Le, Rel::Gt);
    break;
  default:
    return Out; // Unsigned/overflow branches carry no refinement.
  }

  AbstractStore Refined = Out;
  Typestate Ts = Out.reg(Origin->Depth, Origin->R);
  if (Ts.S.isPointsTo() && Origin->Imm == 0) {
    if (Relation == Rel::Eq) {
      // The pointer compared equal to 0: definitely null here.
      Ts.S = State::nullPtr();
      Refined.setReg(Origin->Depth, Origin->R, Ts);
    } else if (Relation == Rel::Ne && Ts.S.mayBeNull() &&
               !Ts.S.targets().empty()) {
      // Compared unequal to 0: drop null.
      Ts.S = State::pointsTo(Ts.S.targets(), /*MayBeNull=*/false);
      Refined.setReg(Origin->Depth, Origin->R, Ts);
    }
    return Refined;
  }
  if (!Ts.S.isInit())
    return Refined;
  // Interval refinement of R against Imm.
  std::optional<int64_t> Lo = Ts.S.lower(), Hi = Ts.S.upper();
  int64_t C = Origin->Imm;
  auto TightenHi = [&Hi](int64_t V) {
    Hi = Hi ? std::min(*Hi, V) : V;
  };
  auto TightenLo = [&Lo](int64_t V) {
    Lo = Lo ? std::max(*Lo, V) : V;
  };
  switch (Relation) {
  case Rel::Eq:
    TightenLo(C);
    TightenHi(C);
    break;
  case Rel::Lt:
    TightenHi(C - 1);
    break;
  case Rel::Le:
    TightenHi(C);
    break;
  case Rel::Gt:
    TightenLo(C + 1);
    break;
  case Rel::Ge:
    TightenLo(C);
    break;
  case Rel::Ne:
  case Rel::None:
    break;
  }
  // Cross-refine the tightened interval against the register's known
  // bits (branch bounds can fix leading bits; a known congruence class
  // rounds the new bounds inward).
  analysis::BitsRange BR =
      Ctx.KnownBits
          ? analysis::crossRefine(Ts.S.bits(), Lo, Hi, Ts.S.pattern32())
          : analysis::BitsRange{Ts.S.bits(), Lo, Hi, false};
  if (BR.Lo != Ts.S.lower() || BR.Hi != Ts.S.upper() ||
      BR.Bits != Ts.S.bits()) {
    Ts.S = State::initBits(BR.Bits, BR.Lo, BR.Hi, Ts.S.pattern32());
    Refined.setReg(Origin->Depth, Origin->R, Ts);
  }
  return Refined;
}

PropagationResult
checker::propagate(const CheckContext &Ctx,
                   const analysis::LivenessResult *Live) {
  if (Live && !Live->Converged)
    Live = nullptr; // Only a converged liveness result is trustworthy.
  PropagationResult Result;
  uint32_t N = Ctx.Graph.size();
  Result.In.assign(N, AbstractStore::top());
  Result.Out.assign(N, AbstractStore::top());

  // Deterministic worklist ordered by reverse postorder.
  std::vector<uint32_t> RpoIndex(N, UINT32_MAX);
  {
    std::vector<NodeId> Rpo = Ctx.Graph.reversePostOrder();
    for (uint32_t I = 0; I < Rpo.size(); ++I)
      RpoIndex[Rpo[I]] = I;
  }
  auto Less = [&RpoIndex](NodeId A, NodeId B) {
    if (RpoIndex[A] != RpoIndex[B])
      return RpoIndex[A] < RpoIndex[B];
    return A < B;
  };
  std::set<NodeId, decltype(Less)> Worklist(Less);
  Worklist.insert(Ctx.Graph.entry());

  // Widening points: targets of a retreating edge (a predecessor at the
  // same or a later reverse-postorder index). Every cycle, reducible or
  // not, contains one, so widening there after a few visits keeps
  // counting loops finite; no other node is ever widened.
  std::vector<bool> WideningPoint(N, false);
  for (NodeId Id = 0; Id < N; ++Id)
    for (NodeId Pred : Ctx.Graph.node(Id).Preds)
      if (RpoIndex[Id] != UINT32_MAX && RpoIndex[Pred] != UINT32_MAX &&
          RpoIndex[Pred] >= RpoIndex[Id])
        WideningPoint[Id] = true;
  std::vector<uint32_t> Visits(N, 0);
  constexpr uint32_t WidenAfter = 8;

  uint64_t Budget = static_cast<uint64_t>(N) * 256 + 10000;
  while (!Worklist.empty()) {
    if (Result.NodeVisits++ > Budget) {
      Ctx.Diags->report(DiagSeverity::Warning, SafetyKind::None,
                        "typestate propagation exceeded its budget");
      break;
    }
    // A governor trip abandons the fixpoint mid-flight. The partial
    // result may be smaller than the true fixpoint, so the caller must
    // not run any later phase over it (SafetyChecker degrades to
    // Unknown when it sees the governor exhausted here).
    if (Ctx.Governor && !Ctx.Governor->poll("typestate/worklist"))
      break;
    NodeId Id = *Worklist.begin();
    Worklist.erase(Worklist.begin());

    AbstractStore NewIn = Id == Ctx.Graph.entry() ? Ctx.EntryStore
                                                  : AbstractStore::top();
    for (NodeId Pred : Ctx.Graph.node(Id).Preds) {
      const AbstractStore &PredOut = Result.Out[Pred];
      if (PredOut.isTop())
        continue;
      for (const CfgEdge &Edge : Ctx.Graph.node(Pred).Succs) {
        if (Edge.To != Id)
          continue;
        // Top is meet's identity: the first arriving store is taken
        // as is rather than copied through meet.
        AbstractStore Arriving = refineEdge(Ctx, PredOut, Edge);
        NewIn = NewIn.isTop() ? std::move(Arriving)
                              : AbstractStore::meet(NewIn, Arriving);
      }
    }
    if (NewIn.isTop())
      continue; // Not yet reachable.
    if (Live)
      NewIn.pruneRegs([&](int32_t Depth, Reg R, const Typestate &Ts) {
        if (Live->liveIn(Id, Depth, R))
          return true;
        // A contradictory interval proves the paths meeting here cannot
        // both execute; that fact matters even for a dead register.
        auto Lo = Ts.S.lower(), Hi = Ts.S.upper();
        return Lo && Hi && *Lo > *Hi;
      });
    if (WideningPoint[Id] && ++Visits[Id] > WidenAfter) {
      NewIn = AbstractStore::widen(Result.In[Id], NewIn);
      // Widening drops any interval bound still in motion, but keeps
      // every known bit below the lowest lost one, so rederive the bounds
      // the surviving bits imply — e.g. a loop-carried and-mask keeps its
      // upper bound at the head even after the interval widened to +inf.
      // Terminates: the rederived bounds are a monotone function of the
      // bits, which only ever lose precision across iterations.
      if (Ctx.KnownBits)
        NewIn.forEachReg([&](int32_t Depth, Reg R, const Typestate &Ts) {
          if (!Ts.S.isInit() || Ts.S.constant())
            return;
          analysis::BitsRange BR = analysis::crossRefine(
              Ts.S.bits(), Ts.S.lower(), Ts.S.upper(), Ts.S.pattern32());
          if (BR.Lo == Ts.S.lower() && BR.Hi == Ts.S.upper() &&
              BR.Bits == Ts.S.bits())
            return;
          Typestate Refined = Ts;
          Refined.S =
              State::initBits(BR.Bits, BR.Lo, BR.Hi, Ts.S.pattern32());
          NewIn.setReg(Depth, R, std::move(Refined));
        });
    }
    AbstractStore NewOut = transfer(Ctx, Id, NewIn);
    Result.In[Id] = std::move(NewIn);
    if (NewOut != Result.Out[Id]) {
      Result.Out[Id] = std::move(NewOut);
      for (const CfgEdge &Edge : Ctx.Graph.node(Id).Succs)
        Worklist.insert(Edge.To);
    }
  }
  return Result;
}
