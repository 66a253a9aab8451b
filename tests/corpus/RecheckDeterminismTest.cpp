//===- RecheckDeterminismTest.cpp -----------------------------------------===//
//
// The certificate store's end-to-end contract over the corpus: a warm
// recheck (every certificate hits and revalidates) renders a report
// byte-identical to the cold run that wrote the store — and both are
// byte-identical to a run with no store at all, for every job count.
// Incremental re-verification must be invisible in the output.
//
//===----------------------------------------------------------------------===//

#include "checker/CertStore.h"
#include "checker/ParallelCheck.h"
#include "corpus/Corpus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace {

std::vector<CheckJob> corpusJobs() {
  std::vector<CheckJob> Jobs;
  for (const corpus::CorpusProgram &P : corpus::corpus())
    Jobs.push_back({P.Name, P.Asm, P.Policy});
  return Jobs;
}

std::string runJobs(const std::vector<CheckJob> &Jobs, unsigned Workers,
                    CertStore *Store) {
  ParallelCheckOptions Opts;
  Opts.Jobs = Workers;
  Opts.Check.Certs = Store;
  return renderParallelReport(checkJobs(Jobs, Opts));
}

std::string runCorpus(unsigned Jobs, CertStore *Store) {
  return runJobs(corpusJobs(), Jobs, Store);
}

struct TempDir {
  std::string Dir;
  explicit TempDir(const char *Tag) {
    Dir = (std::filesystem::temp_directory_path() /
           (std::string("mcsafe-recheck-") + Tag + "-" +
            std::to_string(::getpid())))
              .string();
    std::filesystem::remove_all(Dir);
  }
  ~TempDir() { std::filesystem::remove_all(Dir); }
};

TEST(RecheckDeterminism, WarmAndColdReportsAreByteIdentical) {
  std::string NoStore = runCorpus(4, nullptr);
  ASSERT_FALSE(NoStore.empty());

  TempDir T("bytes");
  CertStore Store(T.Dir);
  std::string Cold = runCorpus(4, &Store);
  EXPECT_EQ(NoStore, Cold); // The store must not perturb a cold run.
  EXPECT_EQ(Store.stats().Misses, corpus::corpus().size());
  EXPECT_EQ(Store.stats().Writes, corpus::corpus().size());

  std::string Warm = runCorpus(4, &Store);
  EXPECT_EQ(Store.stats().Hits, corpus::corpus().size());
  EXPECT_EQ(Store.stats().RevalidateFailed, 0u);
  EXPECT_EQ(Cold, Warm);
}

TEST(RecheckDeterminism, WarmReportsAgreeAcrossJobCounts) {
  TempDir T("jobs");
  CertStore Store(T.Dir);
  std::string Cold = runCorpus(1, &Store);
  for (unsigned Jobs : {1u, 2u, 4u, 8u})
    EXPECT_EQ(Cold, runCorpus(Jobs, &Store)) << "--jobs " << Jobs;
  // 1 cold pass + 4 warm passes, all over the full corpus.
  EXPECT_EQ(Store.stats().Hits, 4 * corpus::corpus().size());
}

TEST(RecheckDeterminism, MixedWarmColdBatchesStayDeterministic) {
  // A store populated for only part of the corpus: the recheck runs
  // some programs warm and some cold in the same batch, which must
  // still render the byte-identical report.
  std::string Baseline = runCorpus(4, nullptr);

  TempDir T("mixed");
  CertStore Store(T.Dir);
  {
    // Populate certificates for the first half of the corpus only.
    std::vector<CheckJob> Half = corpusJobs();
    Half.resize(Half.size() / 2);
    ParallelCheckOptions Opts;
    Opts.Jobs = 4;
    Opts.Check.Certs = &Store;
    checkJobs(Half, Opts);
  }
  uint64_t Pre = Store.stats().Writes;
  EXPECT_EQ(runCorpus(4, &Store), Baseline);
  EXPECT_EQ(Store.stats().Hits, corpus::corpus().size() / 2);
  EXPECT_EQ(Store.stats().Writes - Pre,
            corpus::corpus().size() - corpus::corpus().size() / 2);
}

TEST(RecheckDeterminism, OneEditedProgramCostsOneColdCheck) {
  // The edit-recheck loop: after a cold pass, one program's source
  // changes by a trailing comment (same semantics, new bytes, new key).
  // Only that program re-verifies cold; every other one hits.
  TempDir T("edit");
  CertStore Store(T.Dir);
  runCorpus(4, &Store);
  CertStore::Stats Cold = Store.stats();

  std::vector<CheckJob> Edited = corpusJobs();
  ASSERT_EQ(Edited.front().Name, "Sum");
  Edited.front().Asm += "\n! edited\n";
  std::string Recheck = runJobs(Edited, 4, &Store);
  CertStore::Stats After = Store.stats();
  EXPECT_EQ(After.Hits - Cold.Hits, Edited.size() - 1);
  EXPECT_EQ(After.Misses - Cold.Misses, 1u);
  EXPECT_EQ(After.Writes - Cold.Writes, 1u);
  EXPECT_EQ(After.RevalidateFailed, 0u);
  EXPECT_EQ(Recheck, runJobs(Edited, 4, nullptr));
}

} // namespace
