//===- InternGenerationTest.cpp - Per-check formula generations -----------===//
//
// Every check runs in its own VarNamespace, and so in its own formula
// generation: the interner must hold exactly as many live nodes after a
// check as before it, whatever ran the check (a lone checker, or the
// batch driver with a thread pool and speculative VC tasks), and no cache
// that outlives a check may keep one of its keys.
//
//===----------------------------------------------------------------------===//

#include "checker/ParallelCheck.h"
#include "corpus/Corpus.h"

#include <gtest/gtest.h>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace {

std::vector<CheckJob> corpusJobs() {
  std::vector<CheckJob> Jobs;
  for (const corpus::CorpusProgram &P : corpus::corpus())
    Jobs.push_back({P.Name, P.Asm, P.Policy});
  return Jobs;
}

TEST(Intern, CorpusChecksReturnLiveNodesToBaseline) {
  // The base is built on first use, with True and False in it.
  (void)Formula::mkTrue();
  for (const corpus::CorpusProgram &P : corpus::corpus()) {
    Formula::InternStats Before = Formula::internStats();
    uint64_t During = 0;
    {
      VarNamespace NS;
      CheckReport R = SafetyChecker().checkSource(P.Asm, P.Policy);
      EXPECT_EQ(R.Safe, P.ExpectSafe) << P.Name;
      During = Formula::internStats().Nodes;
    }
    Formula::InternStats After = Formula::internStats();
    EXPECT_EQ(After.Nodes, Before.Nodes) << P.Name;
    EXPECT_EQ(After.Bytes, Before.Bytes) << P.Name;
    if (!P.ExpectSafe)
      continue;
    EXPECT_GT(During, Before.Nodes) << P.Name;
  }
}

TEST(Intern, LongLivedCacheHoldsNoKeyOfAColdCheck) {
  // The daemon's arrangement: one cache outliving every check. A cold
  // check has no base formulas to ask about, so the cache stays empty.
  auto Shared = std::make_shared<ProverCache>();
  SafetyChecker::Options O;
  O.SharedProverCache = Shared;
  for (const corpus::CorpusProgram &P : corpus::corpus()) {
    VarNamespace NS;
    EXPECT_EQ(SafetyChecker(O).checkSource(P.Asm, P.Policy).Safe,
              P.ExpectSafe)
        << P.Name;
  }
  EXPECT_EQ(Shared->stats().Entries, 0u);
  EXPECT_EQ(Shared->stats().Insertions, 0u);
}

TEST(Intern, CheckJobsAtJobs4LeavesLiveNodesAtBaseline) {
  ParallelCheckOptions Seq;
  Seq.Jobs = 1;
  const std::string Baseline = renderParallelReport(checkJobs(corpusJobs(), Seq));

  Formula::InternStats Before = Formula::internStats();
  ParallelCheckOptions Par;
  Par.Jobs = 4;
  Par.VcParallelism = true;
  Par.ShareProverCache = true;
  const std::string Report = renderParallelReport(checkJobs(corpusJobs(), Par));
  Formula::InternStats After = Formula::internStats();

  EXPECT_EQ(Report, Baseline);
  EXPECT_EQ(After.Nodes, Before.Nodes);
  EXPECT_EQ(After.Bytes, Before.Bytes);
}

} // namespace
