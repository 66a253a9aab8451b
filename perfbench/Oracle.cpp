//===- Oracle.cpp - Expected answers, statistics and memory probes --------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "checker/ParallelCheck.h"
#include "constraints/Formula.h"
#include "constraints/Var.h"
#include "corpus/Corpus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace perfbench {

void RunResult::fail(std::string Why, bool Wrong) {
  ++Failed;
  if (Wrong)
    Correct = false;
  // Keep stderr readable when a defect fails thousands of operations.
  if (Problems.size() < 50)
    Problems.push_back(std::move(Why));
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-12));
  return std::exp(LogSum / V.size());
}

WorkCounters WorkCounters::of(const CheckReport &R) {
  WorkCounters C;
  C.Visits = R.TypestateNodeVisits;
  C.ValidityQueries = R.ProverStats.ValidityQueries;
  C.SatQueries = R.ProverStats.SatQueries;
  C.CongruenceHits = R.ProverStats.Tiers.CongruenceHits;
  C.IntervalHits = R.ProverStats.Tiers.IntervalHits;
  C.DbmHits = R.ProverStats.Tiers.DbmHits;
  C.OmegaHits = R.ProverStats.Tiers.OmegaHits;
  C.OmegaCalls = R.OmegaStats.Calls;
  C.Conditions = R.Chars.GlobalConditions;
  return C;
}

bool WorkCounters::sameWork(const WorkCounters &O) const {
  return Visits == O.Visits && ValidityQueries == O.ValidityQueries &&
         SatQueries == O.SatQueries && Conditions == O.Conditions;
}

bool WorkCounters::sameSolverWork(const WorkCounters &O) const {
  return CongruenceHits == O.CongruenceHits &&
         IntervalHits == O.IntervalHits && DbmHits == O.DbmHits &&
         OmegaHits == O.OmegaHits && OmegaCalls == O.OmegaCalls;
}

std::string WorkCounters::str() const {
  std::ostringstream OS;
  OS << "visits=" << Visits << " validity=" << ValidityQueries
     << " sat=" << SatQueries << " conditions=" << Conditions
     << " congruence=" << CongruenceHits
     << " interval=" << IntervalHits << " dbm=" << DbmHits
     << " omega_hits=" << OmegaHits << " omega_calls=" << OmegaCalls;
  return OS.str();
}

std::string renderOne(const std::string &Name, const CheckReport &R) {
  ParallelCheckResult One;
  One.Programs.push_back({Name, R});
  return renderParallelReport(One);
}

CheckReport checkCold(const std::string &Asm, const std::string &Policy,
                      const SafetyChecker::Options &Opts) {
  VarNamespace NS;
  return SafetyChecker(Opts).checkSource(Asm, Policy);
}

Oracle::Oracle(bool PlantWrongExpectation, uint64_t Seed) {
  const std::vector<corpus::CorpusProgram> &Corpus = corpus::corpus();
  for (const corpus::CorpusProgram &P : Corpus) {
    Names.push_back(P.Name);
    ExpectSafe.push_back(P.ExpectSafe);
  }
  if (PlantWrongExpectation) {
    size_t Victim = Seed % Corpus.size();
    ExpectSafe[Victim] = !ExpectSafe[Victim];
  }
  for (size_t I = 0; I < Corpus.size(); ++I) {
    CheckReport R = checkCold(Corpus[I].Asm, Corpus[I].Policy);
    RefBytes.push_back(renderOne(Names[I], R));
    RefCounters.push_back(WorkCounters::of(R));
    if (std::string Why = judge(I, R, true); !Why.empty())
      RefProblems.push_back("reference: " + Why);
  }
}

std::string Oracle::judge(size_t I, const CheckReport &R,
                          bool PrivateCache) const {
  const corpus::CorpusProgram &P = corpus::corpus()[I];
  if (R.Verdict != CheckVerdict::Safe && R.Verdict != CheckVerdict::Unsafe)
    return Names[I] + ": verdict " + verdictName(R.Verdict);
  if (R.Safe != ExpectSafe[I])
    return Names[I] + (R.Safe ? ": unearned SAFE" : ": missed SAFE");
  for (const auto &[Kind, MinCount] : P.ExpectedViolations)
    if (R.Diags.countOfKind(Kind) < MinCount)
      return Names[I] + ": fewer " + safetyKindName(Kind) +
             " violations than expected";
  // The reference itself is still being built.
  if (RefBytes.size() <= I)
    return {};
  if (renderOne(Names[I], R) != RefBytes[I])
    return Names[I] + ": report bytes differ from the cold-seq reference";
  WorkCounters C = WorkCounters::of(R);
  if (!C.sameWork(RefCounters[I]) ||
      (PrivateCache && !C.sameSolverWork(RefCounters[I])))
    return Names[I] + ": work counters " + C.str() + " differ from " +
           RefCounters[I].str();
  return {};
}

uint64_t procStatusKb(int Pid, const char *Field) {
  std::string Path = Pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(Pid) + "/status";
  std::ifstream In(Path);
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0)
      return std::strtoull(Line.c_str() + Len, nullptr, 10);
  return 0;
}

MemSample sampleMemory() {
  Formula::InternStats S = Formula::internStats();
  return {S.Nodes, S.Bytes, procStatusKb(0, "VmRSS:")};
}

} // namespace perfbench
