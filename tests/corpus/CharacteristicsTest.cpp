//===- CharacteristicsTest.cpp - Pin the Figure 9 characteristics ---------===//
//
// Pins the measured characteristics of our corpus (the left half of the
// Figure 9 table) so structural regressions in the assembler, the CFG
// normalizer, or the annotation phase are caught immediately. The
// paper-reported values live in CorpusProgram::Paper and are compared
// qualitatively in EXPERIMENTS.md; these are the exact values of *our*
// re-implementations.
//
//===----------------------------------------------------------------------===//

#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"

#include <gtest/gtest.h>

#include <ostream>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::corpus;

namespace {

struct Expected {
  const char *Name;
  uint32_t Instructions, Branches, Loops, InnerLoops, Calls, TrustedCalls;
  uint64_t GlobalConditions;
};

// Names the parameter in test listings. Without it gtest prints the raw
// struct bytes, Name pointer included, and the test names change with
// every address-space layout.
void PrintTo(const Expected &E, std::ostream *OS) { *OS << E.Name; }

const Expected Table[] = {
    {"Sum", 13, 2, 1, 0, 0, 0, 4},
    {"PagingPolicy", 21, 4, 2, 1, 0, 0, 6},
    {"StartTimer", 16, 1, 0, 0, 1, 1, 11},
    {"Hash", 28, 4, 1, 0, 1, 1, 10},
    {"BubbleSort", 24, 3, 2, 1, 0, 0, 16},
    {"StopTimer", 31, 2, 0, 0, 2, 2, 16},
    {"Btree", 37, 6, 2, 1, 0, 0, 12},
    {"Btree2", 73, 8, 2, 1, 4, 0, 12},
    {"HeapSort2", 70, 6, 4, 2, 3, 0, 54},
    {"HeapSort", 83, 10, 4, 2, 0, 0, 54},
    {"jPVM", 136, 9, 3, 0, 21, 21, 17},
    {"StackSmashing", 292, 77, 7, 1, 2, 2, 32},
    {"MD5", 913, 5, 5, 2, 6, 0, 336},
};

class Characteristics : public ::testing::TestWithParam<Expected> {};

TEST_P(Characteristics, MatchPinnedValues) {
  const Expected &E = GetParam();
  const CorpusProgram &P = corpusProgram(E.Name);
  SafetyChecker Checker;
  CheckReport R = Checker.checkSource(P.Asm, P.Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_EQ(R.Chars.Instructions, E.Instructions);
  EXPECT_EQ(R.Chars.Branches, E.Branches);
  EXPECT_EQ(R.Chars.Loops, E.Loops);
  EXPECT_EQ(R.Chars.InnerLoops, E.InnerLoops);
  EXPECT_EQ(R.Chars.Calls, E.Calls);
  EXPECT_EQ(R.Chars.TrustedCalls, E.TrustedCalls);
  EXPECT_EQ(R.Chars.GlobalConditions, E.GlobalConditions);
}

TEST_P(Characteristics, LoopAndCallShapeMatchesPaper) {
  // The loop nesting and call structure are the paper-faithful part of
  // the corpus; assert them against the paper's Figure 9 row exactly.
  const Expected &E = GetParam();
  const CorpusProgram &P = corpusProgram(E.Name);
  EXPECT_EQ(static_cast<int>(E.Loops), P.Paper.Loops);
  EXPECT_EQ(static_cast<int>(E.InnerLoops), P.Paper.InnerLoops);
  EXPECT_EQ(static_cast<int>(E.Calls), P.Paper.Calls);
}

INSTANTIATE_TEST_SUITE_P(
    Figure9, Characteristics, ::testing::ValuesIn(Table),
    [](const ::testing::TestParamInfo<Expected> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
