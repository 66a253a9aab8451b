//===- SfiPrograms.cpp - Software-fault-isolation mask idioms -------------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
// Sandboxing (SFI) guards untrusted memory accesses by and-masking the
// address into the sandbox region (Wahbe et al., SOSP 1993) — the
// motivating client the paper names for reasoning about bitwise
// operations. These programs exercise the known-bits / alignment domain:
// every SAFE entry is provable only because the and-mask both bounds the
// offset (upper bits cleared) and aligns it (lower bits cleared), facts
// the interval domain alone cannot see. With --no-knownbits they all
// (except SfiShift, whose bound survives via the shift's interval
// transfer) degrade to UNSAFE, which is exactly the differential the
// corpus pins.
//
// None of these appear in Figure 9, so PaperRow carries our own measured
// shape with zeroed timing columns.
//
//===----------------------------------------------------------------------===//

#include "corpus/CorpusImpl.h"

using namespace mcsafe;
using namespace mcsafe::corpus;

CorpusProgram detail::makeSfiMask() {
  CorpusProgram P;
  P.Name = "SfiMask";
  // The canonical sandbox idiom: one and-mask makes the byte offset both
  // in-bounds ([0,1020]) and word-aligned (low two bits clear).
  P.Asm = R"(
  and %o1,1020,%o1   ! mask the byte offset into [0,1020], 4-aligned
  ld [%o0+%o1],%o2   ! sandboxed word load
  st %o2,[%o0+%o1]   ! sandboxed word store
  retl
  nop
)";
  P.Policy = R"(
loc e : int32 state=init summary
loc buf : int32[256] state={e}
region V { buf, e }
allow V : int32 : r,w,o
allow V : int32[256] : r,w,f,o
invoke %o0 = buf
invoke %o1 = off
)";
  P.ExpectSafe = true;
  P.Paper = {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  return P;
}

CorpusProgram detail::makeSfiMaskLoop() {
  CorpusProgram P;
  P.Name = "SfiMaskLoop";
  // Re-masking inside a loop, the way an SFI rewriter guards an indexed
  // copy. The mask's bound must survive widening of the loop counter:
  // widening happens only at the loop head, so the `and` derives [0,1020]
  // afresh on every visit. Widened right after the `and`, the masked
  // value's bits 9..2 would still be climbing, and the lowest-lost-bit
  // rule would drop the clear bits 31..10 with them.
  P.Asm = R"(
  clr %o1            ! i = 0
loop:
  sll %o1,2,%o2      ! byte offset = 4*i
  and %o2,1020,%o2   ! re-establish the sandbox mask
  ld [%o0+%o2],%g1
  st %g1,[%o0+%o2]
  inc %o1
  cmp %o1,%o3
  bl loop
  nop
  retl
  nop
)";
  P.Policy = R"(
loc e : int32 state=init summary
loc buf : int32[256] state={e}
region V { buf, e }
allow V : int32 : r,w,o
allow V : int32[256] : r,w,f,o
invoke %o0 = buf
invoke %o3 = n
constraint n >= 1
)";
  P.ExpectSafe = true;
  P.Paper = {11, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0};
  return P;
}

CorpusProgram detail::makeSfiAndn() {
  CorpusProgram P;
  P.Name = "SfiAndn";
  // Alignment established by andn (and-not): bound first, then clear the
  // low three bits for a doubleword-aligned region.
  P.Asm = R"(
  and %o1,2047,%o1   ! bound the offset to [0,2047]
  andn %o1,7,%o1     ! clear the low three bits: 8-aligned
  ld [%o0+%o1],%o2
  retl
  nop
)";
  P.Policy = R"(
loc e : int32 state=init summary
loc buf : int32[512] state={e}
region V { buf, e }
allow V : int32 : r,o
allow V : int32[512] : r,f,o
invoke %o0 = buf
invoke %o1 = off
)";
  P.ExpectSafe = true;
  P.Paper = {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  return P;
}

CorpusProgram detail::makeSfiSethi() {
  CorpusProgram P;
  P.Name = "SfiSethi";
  // The mask itself is materialized the SPARC way, with sethi %hi / or
  // %lo; the domain must track the constant through both to see the
  // eventual and as a sandbox guard.
  P.Asm = R"(
  sethi %hi(8188),%g1
  or %g1,1020,%g1    ! %g1 = 0x1ffc: the sandbox mask
  and %o1,%g1,%o1
  ld [%o0+%o1],%o2
  retl
  nop
)";
  P.Policy = R"(
loc e : int32 state=init summary
loc buf : int32[2048] state={e}
region V { buf, e }
allow V : int32 : r,o
allow V : int32[2048] : r,f,o
invoke %o0 = buf
invoke %o1 = off
)";
  P.ExpectSafe = true;
  P.Paper = {6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  return P;
}

CorpusProgram detail::makeSfiHalfword() {
  CorpusProgram P;
  P.Name = "SfiHalfword";
  // Halfword accesses need 2-alignment; the mask keeps bit 0 clear.
  P.Asm = R"(
  and %o1,510,%o1    ! [0,510], 2-aligned
  lduh [%o0+%o1],%o2
  sth %o2,[%o0+%o1]
  retl
  nop
)";
  P.Policy = R"(
loc e : uint16 state=init summary
loc buf : uint16[256] state={e}
region V { buf, e }
allow V : uint16 : r,w,o
allow V : uint16[256] : r,w,f,o
invoke %o0 = buf
invoke %o1 = off
)";
  P.ExpectSafe = true;
  P.Paper = {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  return P;
}

CorpusProgram detail::makeSfiShift() {
  CorpusProgram P;
  P.Name = "SfiShift";
  // Mask a word index, then scale: alignment comes from the shift, the
  // bound from the mask. (Provable without known bits, via the shift's
  // interval transfer; the divisibility obligation is what needs the
  // bit domain's congruence facts to discharge in the cheap tier.)
  P.Asm = R"(
  and %o1,255,%o1    ! word index in [0,255]
  sll %o1,2,%o1      ! scale to a 4-aligned byte offset
  ld [%o0+%o1],%o2
  retl
  nop
)";
  P.Policy = R"(
loc e : int32 state=init summary
loc buf : int32[256] state={e}
region V { buf, e }
allow V : int32 : r,w,o
allow V : int32[256] : r,w,f,o
invoke %o0 = buf
invoke %o1 = off
)";
  P.ExpectSafe = true;
  P.Paper = {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  return P;
}

CorpusProgram detail::makeSfiUnaligned() {
  CorpusProgram P;
  P.Name = "SfiUnaligned";
  // A broken guard: masking aligns the offset, but the +2 skews it onto
  // the residue class 2 mod 4 on *every* execution, so the phase-0
  // lint's must-alignment rule rejects it outright (and, with the lint
  // off, the alignment obligation fails in phase 5).
  P.Asm = R"(
  and %o1,1020,%o1   ! 4-aligned so far
  add %o1,2,%o1      ! skews the offset: = 2 mod 4
  ld [%o0+%o1],%o2
  retl
  nop
)";
  P.Policy = R"(
loc e : int32 state=init summary
loc buf : int32[256] state={e}
region V { buf, e }
allow V : int32 : r,w,o
allow V : int32[256] : r,w,f,o
invoke %o0 = buf
invoke %o1 = off
)";
  P.ExpectSafe = false;
  P.ExpectedViolations = {{SafetyKind::Alignment, 1}};
  P.Paper = {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  return P;
}
