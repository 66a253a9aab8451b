//===- WorkCounterTest.cpp - Pin the corpus's deterministic work ----------===//
//
// Pins four machine-independent work counters for every corpus program:
// typestate node visits, prover sat queries, Omega test consults, and
// back-substitution steps (nodes whose back-substitution formula global
// verification computed; building a formula for every region node again,
// True ones included, raises it).
// Wall time on a shared CI runner is too noisy to catch a change that
// multiplies the checker's work; these counts are exact, so any such
// change fails here. A change that means to alter the work updates the
// table and says why.
//
//===----------------------------------------------------------------------===//

#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace {

struct PinnedWork {
  const char *Name;
  uint64_t Visits, SatQueries, OmegaCalls, BacksubstSteps;
};

// One row per corpus program, in corpus() order.
const PinnedWork Table[] = {
    {"Sum", 73, 13, 1, 32},
    {"PagingPolicy", 35, 15, 1, 34},
    {"StartTimer", 19, 11, 0, 0},
    {"Hash", 35, 11, 3, 14},
    {"BubbleSort", 150, 59, 2, 145},
    {"StopTimer", 36, 16, 0, 0},
    {"Btree", 214, 21, 3, 59},
    {"Btree2", 488, 21, 3, 118},
    {"HeapSort2", 366, 110, 184, 494},
    {"HeapSort", 348, 110, 183, 434},
    {"jPVM", 658, 20, 1, 40},
    {"StackSmashing", 797, 65, 11, 2205},
    {"MD5", 3737, 396, 29, 6050},
    {"SfiMask", 6, 8, 0, 0},
    {"SfiMaskLoop", 86, 8, 0, 0},
    {"SfiAndn", 6, 4, 0, 0},
    {"SfiSethi", 7, 4, 0, 0},
    {"SfiHalfword", 6, 8, 0, 0},
    {"SfiShift", 6, 4, 0, 0},
    {"SfiUnaligned", 0, 0, 0, 0},
};

TEST(CorpusWorkCounters, MatchPinnedValues) {
  const std::vector<corpus::CorpusProgram> &Programs = corpus::corpus();
  ASSERT_EQ(Programs.size(), std::size(Table));
  uint64_t Visits = 0, SatQueries = 0, OmegaCalls = 0, BacksubstSteps = 0;
  for (size_t I = 0; I < Programs.size(); ++I) {
    const PinnedWork &W = Table[I];
    ASSERT_EQ(Programs[I].Name, W.Name);
    // A fresh namespace and a default checker (private prover cache): the
    // counts are a pure function of the program.
    VarNamespace NS;
    CheckReport R = SafetyChecker().checkSource(Programs[I].Asm,
                                                Programs[I].Policy);
    EXPECT_EQ(R.TypestateNodeVisits, W.Visits) << W.Name;
    EXPECT_EQ(R.ProverStats.SatQueries, W.SatQueries) << W.Name;
    EXPECT_EQ(R.OmegaStats.Calls, W.OmegaCalls) << W.Name;
    EXPECT_EQ(R.Global.BacksubstSteps, W.BacksubstSteps) << W.Name;
    Visits += R.TypestateNodeVisits;
    SatQueries += R.ProverStats.SatQueries;
    OmegaCalls += R.OmegaStats.Calls;
    BacksubstSteps += R.Global.BacksubstSteps;
  }
  EXPECT_EQ(Visits, 7073u);
  EXPECT_EQ(SatQueries, 904u);
  EXPECT_EQ(OmegaCalls, 421u);
  EXPECT_EQ(BacksubstSteps, 9625u);
}

} // namespace
