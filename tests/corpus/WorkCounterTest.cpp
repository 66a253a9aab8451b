//===- WorkCounterTest.cpp - Pin the corpus's deterministic work ----------===//
//
// Pins three machine-independent work counters for every corpus program:
// typestate node visits, prover sat queries, and Omega test consults.
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
  uint64_t Visits, SatQueries, OmegaCalls;
};

// One row per corpus program, in corpus() order.
const PinnedWork Table[] = {
    {"Sum", 73, 13, 1},
    {"PagingPolicy", 35, 15, 1},
    {"StartTimer", 19, 11, 0},
    {"Hash", 35, 11, 3},
    {"BubbleSort", 150, 59, 2},
    {"StopTimer", 36, 16, 0},
    {"Btree", 214, 21, 3},
    {"Btree2", 488, 21, 3},
    {"HeapSort2", 366, 110, 184},
    {"HeapSort", 348, 110, 183},
    {"jPVM", 658, 20, 1},
    {"StackSmashing", 797, 65, 11},
    {"MD5", 3737, 396, 29},
    {"SfiMask", 6, 8, 0},
    {"SfiMaskLoop", 86, 8, 0},
    {"SfiAndn", 6, 4, 0},
    {"SfiSethi", 7, 4, 0},
    {"SfiHalfword", 6, 8, 0},
    {"SfiShift", 6, 4, 0},
    {"SfiUnaligned", 0, 0, 0},
};

TEST(CorpusWorkCounters, MatchPinnedValues) {
  const std::vector<corpus::CorpusProgram> &Programs = corpus::corpus();
  ASSERT_EQ(Programs.size(), std::size(Table));
  uint64_t Visits = 0, SatQueries = 0, OmegaCalls = 0;
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
    Visits += R.TypestateNodeVisits;
    SatQueries += R.ProverStats.SatQueries;
    OmegaCalls += R.OmegaStats.Calls;
  }
  EXPECT_EQ(Visits, 7073u);
  EXPECT_EQ(SatQueries, 904u);
  EXPECT_EQ(OmegaCalls, 421u);
}

} // namespace
