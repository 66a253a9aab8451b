//===- LoopInfoTest.cpp ---------------------------------------------------===//

#include "cfg/LoopInfo.h"
#include "corpus/Corpus.h"
#include "sparc/AsmParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace mcsafe;
using namespace mcsafe::cfg;
using namespace mcsafe::sparc;

namespace {

struct Built {
  Module M;
  std::optional<Cfg> G;
  std::unique_ptr<DominatorTree> Dom;
  std::unique_ptr<LoopInfo> Loops;
  DiagnosticEngine Diags;
};

std::unique_ptr<Built> build(const char *Source) {
  auto B = std::make_unique<Built>();
  std::string Error;
  std::optional<Module> M = assemble(Source, &Error);
  EXPECT_TRUE(M.has_value()) << Error;
  B->M = std::move(*M);
  B->G = Cfg::build(B->M, B->Diags);
  EXPECT_TRUE(B->G.has_value()) << B->Diags.str();
  B->Dom = std::make_unique<DominatorTree>(*B->G);
  B->Loops = std::make_unique<LoopInfo>(*B->G, *B->Dom);
  return B;
}

TEST(LoopInfo, AcyclicHasNoLoops) {
  auto B = build(R"(
    cmp %o0,%o1
    bge 5
    nop
    inc %o0
    retl
    nop
  )");
  EXPECT_TRUE(B->Loops->isReducible());
  EXPECT_TRUE(B->Loops->loops().empty());
  EXPECT_EQ(B->Loops->innerLoopCount(), 0u);
}

TEST(LoopInfo, SingleLoopDetected) {
  auto B = build(R"(
    clr %g3
    cmp %g3,%o1
    bge 7
    nop
    inc %g3
    ba 2
    nop
    retl
    nop
  )");
  EXPECT_TRUE(B->Loops->isReducible());
  ASSERT_EQ(B->Loops->loops().size(), 1u);
  const Loop &L = B->Loops->loops()[0];
  EXPECT_EQ(B->G->node(L.Header).InstIndex, 1u);
  EXPECT_FALSE(L.Latches.empty());
  EXPECT_EQ(L.Parent, -1);
  EXPECT_EQ(L.Depth, 1u);
  // Header is inside its own loop.
  EXPECT_EQ(B->Loops->innermostLoop(L.Header),
            0);
}

TEST(LoopInfo, NestedLoopsHaveParentLinks) {
  auto B = build(R"(
    clr %o5          ! i = 0
  outer:
    cmp %o5,%o1
    bge done
    nop
    clr %g4          ! j = 0
  inner:
    cmp %g4,%o2
    bge iout
    nop
    inc %g4
    ba inner
    nop
  iout:
    inc %o5
    ba outer
    nop
  done:
    retl
    nop
  )");
  EXPECT_TRUE(B->Loops->isReducible());
  ASSERT_EQ(B->Loops->loops().size(), 2u);
  EXPECT_EQ(B->Loops->innerLoopCount(), 1u);
  // Loops are sorted smallest-first: [0] is the inner loop.
  const Loop &Inner = B->Loops->loops()[0];
  const Loop &Outer = B->Loops->loops()[1];
  EXPECT_LT(Inner.Body.size(), Outer.Body.size());
  EXPECT_EQ(Inner.Parent, 1);
  EXPECT_EQ(Outer.Parent, -1);
  EXPECT_EQ(Inner.Depth, 2u);
  EXPECT_EQ(Outer.Depth, 1u);
  // The outer loop contains the inner header.
  EXPECT_TRUE(Outer.contains(Inner.Header));
}

TEST(LoopInfo, BackEdgeIdentification) {
  auto B = build(R"(
  top:
    cmp %o0,%o1
    bge out
    nop
    inc %o0
    ba top
    nop
  out:
    retl
    nop
  )");
  ASSERT_EQ(B->Loops->loops().size(), 1u);
  const Loop &L = B->Loops->loops()[0];
  for (NodeId Latch : L.Latches)
    EXPECT_TRUE(B->Loops->isBackEdge(Latch, L.Header));
  EXPECT_FALSE(B->Loops->isBackEdge(L.Header, L.Header));
}

TEST(LoopInfo, SelfLoopIsItsOwnLatch) {
  auto B = build(R"(
    clr %o0
  spin:
    cmp %o0,%o1
    bl spin
    inc %o0
    retl
    nop
  )");
  // The branch's taken edge goes through the delay clone back to the
  // header; a natural loop all the same.
  EXPECT_TRUE(B->Loops->isReducible());
  ASSERT_EQ(B->Loops->loops().size(), 1u);
}

TEST(LoopInfo, InnermostLoopOfOutsideNodeIsNone) {
  auto B = build(R"(
    clr %g3
  top:
    cmp %g3,%o1
    bge out
    nop
    inc %g3
    ba top
    nop
  out:
    retl
    nop
  )");
  EXPECT_EQ(B->Loops->innermostLoop(B->G->entry()), -1);
  EXPECT_EQ(B->Loops->innermostLoop(B->G->exit()), -1);
}

TEST(LoopInfo, CorpusBodiesAscendAndContainsMatchesLinearScan) {
  // contains() bisects Body, which is only right while Body stays
  // strictly ascending; check both on every corpus program's CFG (built
  // as the checker builds it) against a plain linear scan.
  size_t LoopsSeen = 0, PairsChecked = 0;
  for (const corpus::CorpusProgram &P : corpus::corpus()) {
    std::string Error;
    std::optional<Module> M = assemble(P.Asm, &Error);
    ASSERT_TRUE(M.has_value()) << P.Name << ": " << Error;
    DiagnosticEngine Diags;
    std::optional<Cfg> G = Cfg::build(*M, Diags);
    ASSERT_TRUE(G.has_value()) << P.Name << ": " << Diags.str();
    DominatorTree Dom(*G);
    LoopInfo Loops(*G, Dom);
    for (const Loop &L : Loops.loops()) {
      ++LoopsSeen;
      EXPECT_EQ(std::adjacent_find(L.Body.begin(), L.Body.end(),
                                   std::greater_equal<NodeId>()),
                L.Body.end())
          << P.Name << ": loop at node " << L.Header
          << " has a body that is not strictly ascending";
      for (NodeId N = 0; N < G->size(); ++N) {
        bool Linear =
            std::find(L.Body.begin(), L.Body.end(), N) != L.Body.end();
        EXPECT_EQ(L.contains(N), Linear)
            << P.Name << ": loop at node " << L.Header << ", node " << N;
        ++PairsChecked;
      }
    }
  }
  // The corpus has loops (MD5, the sorts, the B-tree searches); an empty
  // sweep would prove nothing.
  EXPECT_GT(LoopsSeen, 10u);
  EXPECT_GT(PairsChecked, 1000u);
}

} // namespace
