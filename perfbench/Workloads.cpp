//===- Workloads.cpp - cold-seq, batch-parallel and serve-recheck ---------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
// Every workload checks the 20 corpus programs until --seconds have
// passed. A run first sets up (builds the sequential reference, and for
// serve-recheck starts a daemon and fills its certificate store) five
// times and reports the median as setup_s.
//
// Traced runs alternate traced and untraced rounds, so one run states
// its own tracing overhead, and end with a census: one pass per layer
// through each public entry point the workload's own loop cannot time
// from outside (README.md lists which rows come from where).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Daemon.h"

#include "checker/CertStore.h"
#include "checker/ParallelCheck.h"
#include "constraints/Prover.h"
#include "constraints/Var.h"
#include "corpus/Corpus.h"
#include "policy/PolicyParser.h"
#include "serve/Client.h"
#include "sparc/AsmParser.h"
#include "support/Io.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <random>
#include <thread>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace perfbench {

namespace {

constexpr int SetupRepeats = 5;
/// peak_rss_mb is the high-water mark after this many measured rounds: a
/// fixed amount of work, so a faster checker is not charged for the
/// interner growth of the extra rounds it fits into --seconds.
constexpr size_t RssRound = 5;
constexpr size_t MinRounds = 6;
/// Census passes per traced run; each census row is their median.
constexpr int CensusRounds = 3;
/// Request ids of census spans start here, clear of loop request ids.
constexpr uint64_t CensusReqBase = uint64_t(1) << 40;
/// Share of serve-recheck requests that carry a trailing-comment edit.
constexpr double EditShare = 0.1;

const std::vector<corpus::CorpusProgram> &programs() {
  return corpus::corpus();
}

/// Per-round values one traced round contributes, keyed by metric name.
using LayerRow = std::map<std::string, double>;

/// Everything an in-process loop measures.
struct LoopLog {
  std::vector<double> RoundS;
  std::vector<bool> RoundTraced;
  /// [program][round] time to verdict.
  std::vector<std::vector<double>> ProgramMs;
  std::vector<MemSample> Mem;
  uint64_t PeakRssKb = 0;
  std::map<std::string, std::vector<double>> Layers;

  explicit LoopLog(size_t N) : ProgramMs(N) {}

  void endRound(double Seconds, bool Traced, const LayerRow &Row) {
    RoundS.push_back(Seconds);
    RoundTraced.push_back(Traced);
    Mem.push_back(sampleMemory());
    if (RoundS.size() == RssRound)
      PeakRssKb = procStatusKb(0, "VmHWM:");
    for (const auto &[Name, V] : Row)
      Layers[Name].push_back(V);
  }
};

/// The report-derived counters of one check, summed per round and kept
/// per program where the metric table asks for program rows.
void addReportCounters(LayerRow &Row, const std::string &Name,
                       const CheckReport &R) {
  const Prover::Stats &PS = R.ProverStats;
  Row["typestate.visits"] += R.TypestateNodeVisits;
  Row["typestate.visits." + Name] = R.TypestateNodeVisits;
  Row["checker.conditions"] += R.Chars.GlobalConditions;
  Row["checker.induction_iters"] += R.Global.IterationsRun;
  Row["constraints.sat_queries"] += PS.SatQueries;
  Row["constraints.tier.congruence_hits"] += PS.Tiers.CongruenceHits;
  Row["constraints.tier.interval_hits"] += PS.Tiers.IntervalHits;
  Row["constraints.tier.dbm_hits"] += PS.Tiers.DbmHits;
  Row["constraints.tier.omega_hits"] += PS.Tiers.OmegaHits;
  Row["constraints.slice.components"] += PS.Slice.Components;
  Row["constraints.slice.cache_hits"] += PS.Slice.CacheHits;
  Row["constraints.omega." + Name] = R.OmegaStats.Calls;
  Row["prover.cache_hits"] += PS.CacheHits;
}

/// The checker's own phase timers (Options::Metrics) for one program.
void addPhaseTimers(LayerRow &Row, const support::MetricsRegistry &Reg,
                    const std::string &Name) {
  auto Phase = [&](const char *P) {
    return static_cast<double>(
        Reg.value("program/" + Name + "/phase/" + P + "_us").value_or(0));
  };
  Row["analysis.lint_us"] += Phase("lint");
  Row["typestate.us"] += Phase("typestate");
  Row["checker.annotation_us"] += Phase("annotation");
  Row["checker.global_us"] += Phase("global");
}

/// Re-discharges a captured prover transcript through a fresh prover
/// configured like the checker's (the certificate revalidation setup),
/// in the variable namespace of the check that captured it. Returns the
/// number of Unsat witnesses that failed to re-prove.
unsigned replayTranscript(const std::vector<QueryRecord> &Transcript,
                          const SafetyChecker::Options &O) {
  Prover::Options PO = O.ProverOpts;
  PO.EnableCongruence = PO.EnableCongruence && O.KnownBits;
  Prover P(PO);
  unsigned Lost = 0;
  for (const QueryRecord &Q : Transcript) {
    SatResult Now = P.checkSat(Q.F);
    if (Q.Outcome.Result == SatResult::Unsat && Now != SatResult::Unsat)
      ++Lost;
  }
  return Lost;
}

/// Seeded visiting order of the 20 programs for one round.
std::vector<size_t> shuffledOrder(size_t N, std::mt19937_64 &Rng) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

/// Judges one report; a wrong answer fails the operation and the run.
/// \p PrivateCache: the check ran on a private prover cache, so its
/// solver-work counters must repeat the reference's exactly.
void judge(const Oracle &O, size_t I, const CheckReport &R, RunResult &Out,
           bool PrivateCache = true) {
  ++Out.Attempted;
  if (std::string Why = O.judge(I, R, PrivateCache); !Why.empty())
    Out.fail(Why, /*Wrong=*/true);
}

/// A number from the daemon's nested metrics JSON: the first "Key":N
/// after the object "Section". 0 when absent.
double jsonNumber(const std::string &Json, const std::string &Section,
                  const std::string &Key) {
  size_t At = Json.find("\"" + Section + "\"");
  if (At == std::string::npos)
    return 0;
  At = Json.find("\"" + Key + "\":", At);
  if (At == std::string::npos)
    return 0;
  return std::strtod(Json.c_str() + At + Key.size() + 3, nullptr);
}

void writeTrace(const RunConfig &Cfg, const SpanLog &Log) {
  if (Cfg.Trace && !Cfg.TraceOut.empty() && !Log.writeChromeJson(Cfg.TraceOut))
    std::fprintf(stderr, "cannot write %s\n", Cfg.TraceOut.c_str());
}

//===----------------------------------------------------------------------===//
// One connect-per-request round trip, as `mcsafe-check --connect` makes it
//===----------------------------------------------------------------------===//

struct Roundtrip {
  bool Ok = false;
  bool TimedOut = false;
  std::string Error;
  Clock::time_point Start;
  double TotalUs = 0;
  serve::CheckResponseMsg Resp;
};

Roundtrip requestOnce(const std::string &Socket, uint64_t ReqId,
                      const std::string &Name, const std::string &Asm,
                      const std::string &Policy, SpanLog *Spans) {
  Roundtrip RT;
  serve::CheckRequestMsg Req;
  Req.ReqId = ReqId;
  Req.Name = Name;
  Req.Asm = Asm;
  Req.Policy = Policy;
  serve::Client C;
  C.setTimeoutMs(Daemon::TimeoutMs);
  RT.Start = Clock::now();
  {
    ScopedSpan S(Spans, "serve.connect", ReqId);
    RT.Ok = C.connect(Socket, RT.Error);
  }
  if (RT.Ok) {
    ScopedSpan S(Spans, "serve.roundtrip", ReqId);
    RT.Ok = C.check(Req, RT.Resp, RT.Error);
  }
  RT.TotalUs = usBetween(RT.Start, Clock::now());
  // The client's deadline messages: "... timed out after N ms" on connect
  // and send, "no response from server within N ms" on receive.
  RT.TimedOut = !RT.Ok && (RT.Error.find("timed out") != std::string::npos ||
                           RT.Error.find("within") != std::string::npos);
  return RT;
}

/// Judges a daemon answer: transport failures and shed requests fail the
/// operation; a wrong report also fails the run.
bool judgeResponse(const Oracle &O, size_t I, const Roundtrip &RT,
                   RunResult &Out) {
  if (!RT.Ok) {
    ++Out.Attempted;
    Out.fail(O.name(I) + ": " + RT.Error, /*Wrong=*/false);
    return false;
  }
  if (RT.Resp.Shed) {
    ++Out.Attempted;
    Out.fail(O.name(I) + ": shed by the daemon", /*Wrong=*/false);
    return false;
  }
  uint64_t FailedBefore = Out.Failed;
  judge(O, I, RT.Resp.Report, Out, /*PrivateCache=*/false);
  return Out.Failed == FailedBefore;
}

//===----------------------------------------------------------------------===//
// The census: layers the workload's own loop does not time from outside
//===----------------------------------------------------------------------===//

void census(const RunConfig &Cfg, const Oracle &O, SpanLog &Spans,
            bool WithServe, RunResult &Out, LayerRow &Layers) {
  namespace fs = std::filesystem;
  const std::vector<corpus::CorpusProgram> &Ps = programs();
  const std::string Root = Cfg.WorkDir + "/census";
  fs::remove_all(Root);
  const SafetyChecker::Options Defaults;
  const std::string Config = canonicalCheckConfig(Defaults);

  std::map<std::string, std::vector<double>> PerRound;
  for (int Round = 0; Round < CensusRounds; ++Round) {
    CertStore Store(Root + "/certs-" + std::to_string(Round));
    LayerRow Row;
    for (size_t I = 0; I < Ps.size(); ++I) {
      const corpus::CorpusProgram &P = Ps[I];
      uint64_t Req = CensusReqBase + Round * Ps.size() + I;
      VarNamespace NS;
      Clock::time_point T0 = Clock::now();
      std::optional<sparc::Module> M;
      {
        ScopedSpan S(&Spans, "sparc.assemble", Req);
        M = sparc::assemble(P.Asm);
      }
      Clock::time_point T1 = Clock::now();
      std::optional<policy::Policy> Pol;
      {
        ScopedSpan S(&Spans, "policy.parse", Req);
        Pol = policy::parsePolicy(P.Policy);
      }
      Clock::time_point T2 = Clock::now();
      Row["sparc.assemble_us"] += usBetween(T0, T1);
      Row["policy.parse_us"] += usBetween(T1, T2);
      if (!M || !Pol) {
        ++Out.Attempted;
        Out.fail(P.Name + ": corpus input does not parse", true);
        continue;
      }

      Certificate Cert;
      SafetyChecker::Options CO;
      CO.TranscriptSink = &Cert.Witnesses;
      CO.Global.InvariantSink = &Cert.Invariants;
      {
        ScopedSpan S(&Spans, "checker.check", Req);
        Cert.Report = SafetyChecker(CO).check(*M, *Pol);
      }
      judge(O, I, Cert.Report, Out);

      Clock::time_point T3 = Clock::now();
      unsigned Lost;
      {
        ScopedSpan S(&Spans, "constraints.replay", Req);
        Lost = replayTranscript(Cert.Witnesses, CO);
      }
      Row["constraints.replay_us"] += usBetween(T3, Clock::now());
      if (Lost)
        Out.fail(P.Name + ": " + std::to_string(Lost) +
                     " Unsat witnesses did not re-prove",
                 true);

      Cert.Asm = P.Asm;
      Cert.Policy = P.Policy;
      Cert.Config = Config;
      uint64_t Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
      Clock::time_point T4 = Clock::now();
      bool Saved;
      {
        ScopedSpan S(&Spans, "cert.save", Req);
        Saved = Store.save(Key, Cert);
      }
      Clock::time_point T5 = Clock::now();
      Certificate Loaded;
      CertStore::LoadOutcome Outcome;
      {
        ScopedSpan S(&Spans, "cert.load", Req);
        Outcome = Store.load(Key, P.Asm, P.Policy, Config, Loaded);
      }
      Row["cert.save_us"] += usBetween(T4, T5);
      Row["cert.load_us"] += usBetween(T5, Clock::now());
      if (!Saved || Outcome != CertStore::LoadOutcome::Hit) {
        ++Out.Attempted;
        Out.fail(P.Name + ": certificate did not round-trip", false);
      } else {
        judge(O, I, Loaded.Report, Out);
      }
    }
    for (const auto &[Name, V] : Row)
      PerRound[Name].push_back(V);
  }
  for (const auto &[Name, Vs] : PerRound)
    Layers.emplace(Name, median(Vs));

  // The checker's own warm path: a cold pass writes, a second pass hits
  // and re-discharges every Unsat witness.
  {
    CertStore Store(Root + "/warm");
    SafetyChecker::Options WO;
    WO.Certs = &Store;
    for (int Pass = 0; Pass < 2; ++Pass)
      for (size_t I = 0; I < Ps.size(); ++I)
        judge(O, I, checkCold(Ps[I].Asm, Ps[I].Policy, WO), Out);
    CertStore::Stats S = Store.stats();
    Layers.emplace("cert.hits", S.Hits);
    Layers.emplace("cert.misses", S.Misses);
    Layers.emplace("cert.revalidate_failed", S.RevalidateFailed);
  }

  if (!WithServe)
    return;
  // One client, one connection per request: a store-filling pass, then a
  // recheck pass that hits every certificate.
  Daemon D;
  std::string Error;
  if (!D.start(Cfg.ServeBin, Cfg.WorkDir + "/census.sock", 1,
               Root + "/serve-certs", "", Error)) {
    ++Out.Attempted;
    Out.fail("census daemon: " + Error, false);
    return;
  }
  uint64_t Shed = 0, Timeouts = 0;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (size_t I = 0; I < Ps.size(); ++I) {
      uint64_t Req = CensusReqBase + (CensusRounds + Pass) * Ps.size() + I;
      Roundtrip RT = requestOnce(D.socket(), Req, Ps[I].Name, Ps[I].Asm,
                                 Ps[I].Policy, &Spans);
      Shed += RT.Ok && RT.Resp.Shed;
      Timeouts += RT.TimedOut;
      judgeResponse(O, I, RT, Out);
    }
  std::string Stats;
  {
    serve::Client C;
    C.setTimeoutMs(Daemon::TimeoutMs);
    if (!C.connect(D.socket(), Error) || !C.serverStats(Stats, Error)) {
      ++Out.Attempted;
      Out.fail("census daemon stats: " + Error, false);
    }
  }
  Layers.emplace("serve.connect_us", Spans.medianUs("serve.connect"));
  Layers.emplace("serve.roundtrip_us", Spans.medianUs("serve.roundtrip"));
  Layers.emplace("serve.connections",
                 jsonNumber(Stats, "serve", "connections"));
  Layers.emplace("serve.shed", Shed);
  Layers.emplace("serve.timeouts", Timeouts);
  if (!D.stop()) {
    ++Out.Attempted;
    Out.fail("census daemon did not stop cleanly", false);
  }
}

//===----------------------------------------------------------------------===//
// Result assembly shared by the in-process workloads
//===----------------------------------------------------------------------===//

/// Median over the rounds selected by \p Traced.
double roundMedian(const LoopLog &L, bool Traced) {
  std::vector<double> V;
  for (size_t I = 0; I < L.RoundS.size(); ++I)
    if (L.RoundTraced[I] == Traced)
      V.push_back(L.RoundS[I]);
  return median(V);
}

void reportMemory(const LoopLog &L, LayerRow &Layers) {
  std::vector<double> Nodes, Mb;
  for (size_t I = 1; I < L.Mem.size(); ++I) {
    Nodes.push_back(double(L.Mem[I].InternNodes) - L.Mem[I - 1].InternNodes);
    Mb.push_back((double(L.Mem[I].InternBytes) - L.Mem[I - 1].InternBytes) /
                 1e6);
  }
  Layers["constraints.intern.nodes"] = median(Nodes);
  Layers["constraints.intern.mb"] = median(Mb);
  const MemSample &First = L.Mem.front(), &Last = L.Mem.back();
  std::fprintf(stderr,
               "memory: %zu rounds, interner %llu -> %llu nodes "
               "(%.1f -> %.1f MB), RSS %.1f -> %.1f MB\n",
               L.Mem.size(), (unsigned long long)First.InternNodes,
               (unsigned long long)Last.InternNodes, First.InternBytes / 1e6,
               Last.InternBytes / 1e6, First.RssKb / 1024.0,
               Last.RssKb / 1024.0);
}

void finishInProcess(const RunConfig &Cfg, const Oracle &O, LoopLog &L,
                     double SetupS, SpanLog *Spans, RunResult &Out) {
  LayerRow Layers;
  std::vector<double> ProgramMedians;
  for (size_t I = 0; I < O.size(); ++I) {
    // check_ms.<P> comes from the untraced rounds only.
    std::vector<double> Untraced;
    for (size_t R = 0; R < L.RoundS.size(); ++R)
      if (!L.RoundTraced[R])
        Untraced.push_back(L.ProgramMs[I][R]);
    ProgramMedians.push_back(median(Untraced));
    Layers["check_ms." + O.name(I)] = ProgramMedians.back();
  }
  double CorpusS = roundMedian(L, false);
  Out.set("setup_s", SetupS, "s");
  Out.set("corpus_s", CorpusS, "s");
  Out.set("check_ms_geomean", geomean(ProgramMedians), "ms");
  Out.set("peak_rss_mb", L.PeakRssKb / 1024.0, "MB");
  std::fprintf(stderr,
               "%zu rounds of %.4f/%.4f/%.4f/%.4f s (min/p25/p75/max); "
               "corpus_s %.4f; check_ms_geomean %.4f\n",
               L.RoundS.size(), percentile(L.RoundS, 0),
               percentile(L.RoundS, 25), percentile(L.RoundS, 75),
               percentile(L.RoundS, 100), CorpusS, geomean(ProgramMedians));
  if (!Spans)
    return;

  for (const auto &[Name, Vs] : L.Layers)
    Layers[Name] = median(Vs);
  reportMemory(L, Layers);
  double TracedS = roundMedian(L, true);
  Layers["trace.overhead_pct"] = (TracedS / CorpusS - 1) * 100;
  std::fprintf(stderr,
               "tracing overhead: traced rounds %.4f s vs untraced %.4f s\n",
               TracedS, CorpusS);
  census(Cfg, O, *Spans, /*WithServe=*/true, Out, Layers);
  // The shared-cache and pool rows exist only where a batch runs; the
  // private prover cache gives cold-seq its own hit share.
  if (!Layers.count("constraints.cache.hit_share"))
    Layers["constraints.cache.hit_share"] =
        Layers["prover.cache_hits"] /
        std::max(1.0, Layers["constraints.sat_queries"]);
  Layers.emplace("pool.idle_share", 0);
  Layers.emplace("pool.steals", 0);
  Layers.erase("prover.cache_hits");
  // Per-layer results replace the end-to-end ones in a traced run. Their
  // units are declared in BENCHMARK.json; run.py fills them in.
  Out.Metrics.clear();
  for (const auto &[Name, V] : Layers)
    Out.Metrics[Name] = {V, ""};
}

/// Builds the reference SetupRepeats times; setup_s is the median. Each
/// rebuild must repeat the first byte for byte and counter for counter.
std::unique_ptr<Oracle> setupReference(const RunConfig &Cfg, double &SetupS,
                                       RunResult &Out) {
  std::vector<double> Times;
  std::unique_ptr<Oracle> First, O;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    O = std::make_unique<Oracle>(Cfg.PlantWrongExpectation, Cfg.Seed);
    Times.push_back(usBetween(T0, Clock::now()) / 1e6);
    if (!First) {
      First = std::move(O);
      continue;
    }
    Out.Attempted += O->size();
    for (size_t I = 0; I < O->size(); ++I)
      if (O->referenceBytes(I) != First->referenceBytes(I) ||
          !O->referenceCounters(I).sameWork(First->referenceCounters(I)) ||
          !O->referenceCounters(I).sameSolverWork(
              First->referenceCounters(I)))
        Out.fail(O->name(I) + ": reference did not repeat", true);
  }
  SetupS = median(Times);
  Out.Attempted += First->size();
  for (const std::string &P : First->referenceProblems())
    Out.fail(P, true);
  return First;
}

//===----------------------------------------------------------------------===//
// cold-seq
//===----------------------------------------------------------------------===//

void runColdSeq(const RunConfig &Cfg, RunResult &Out) {
  double SetupS = 0;
  std::unique_ptr<Oracle> O = setupReference(Cfg, SetupS, Out);
  const std::vector<corpus::CorpusProgram> &Ps = programs();
  SpanLog Log;
  std::mt19937_64 Rng(Cfg.Seed);
  LoopLog L(Ps.size());

  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Cfg.Seconds));
  for (size_t Round = 0; Round < MinRounds || Clock::now() < Deadline;
       ++Round) {
    bool Traced = Cfg.Trace && Round % 2 == 1;
    SpanLog *Spans = Traced ? &Log : nullptr;
    support::MetricsRegistry Reg;
    LayerRow Row;
    double RoundUs = 0;
    std::vector<double> Ms(Ps.size(), 0);
    for (size_t I : shuffledOrder(Ps.size(), Rng)) {
      const corpus::CorpusProgram &P = Ps[I];
      uint64_t Req = Round * Ps.size() + I;
      SafetyChecker::Options CO;
      std::vector<QueryRecord> Transcript;
      if (Traced) {
        CO.Metrics = &Reg;
        CO.MetricScope = "program/" + P.Name;
        CO.TranscriptSink = &Transcript;
      }
      // The namespace spans the check and the replay of its transcript,
      // whose formulas name the check's variables.
      VarNamespace NS;
      Clock::time_point T0 = Clock::now();
      std::optional<sparc::Module> M;
      {
        ScopedSpan S(Spans, "sparc.assemble", Req);
        M = sparc::assemble(P.Asm);
      }
      Clock::time_point T1 = Clock::now();
      std::optional<policy::Policy> Pol;
      {
        ScopedSpan S(Spans, "policy.parse", Req);
        Pol = policy::parsePolicy(P.Policy);
      }
      if (Traced) {
        Row["sparc.assemble_us"] += usBetween(T0, T1);
        Row["policy.parse_us"] += usBetween(T1, Clock::now());
      }
      if (!M || !Pol) {
        ++Out.Attempted;
        Out.fail(P.Name + ": corpus input does not parse", true);
        continue;
      }
      CheckReport R;
      {
        ScopedSpan S(Spans, "checker.check", Req);
        R = SafetyChecker(CO).check(*M, *Pol);
      }
      double Us = usBetween(T0, Clock::now());
      RoundUs += Us;
      Ms[I] = Us / 1000;
      judge(*O, I, R, Out);
      if (Traced) {
        addReportCounters(Row, P.Name, R);
        addPhaseTimers(Row, Reg, P.Name);
        Clock::time_point R0 = Clock::now();
        unsigned Lost;
        {
          ScopedSpan S(Spans, "constraints.replay", Req);
          Lost = replayTranscript(Transcript, CO);
        }
        Row["constraints.replay_us"] += usBetween(R0, Clock::now());
        if (Lost)
          Out.fail(P.Name + ": " + std::to_string(Lost) +
                       " Unsat witnesses did not re-prove",
                   true);
      }
    }
    for (size_t I = 0; I < Ps.size(); ++I)
      L.ProgramMs[I].push_back(Ms[I]);
    L.endRound(RoundUs / 1e6, Traced, Row);
  }

  finishInProcess(Cfg, *O, L, SetupS, Cfg.Trace ? &Log : nullptr, Out);
  writeTrace(Cfg, Log);
}

//===----------------------------------------------------------------------===//
// batch-parallel
//===----------------------------------------------------------------------===//

void runBatchParallel(const RunConfig &Cfg, RunResult &Out) {
  double SetupS = 0;
  std::unique_ptr<Oracle> O = setupReference(Cfg, SetupS, Out);
  const std::vector<corpus::CorpusProgram> &Ps = programs();
  SpanLog Log;
  LoopLog L(Ps.size());
  // Corpus order, as `mcsafe-check --corpus all --jobs N` submits it. The
  // batch wall time depends on where MD5 (two thirds of the work) lands
  // in the queue, so a per-round shuffle would make it bimodal.
  std::vector<CheckJob> Jobs;
  for (const corpus::CorpusProgram &P : Ps)
    Jobs.push_back({P.Name, P.Asm, P.Policy});

  // Checks whose tier hits or Omega consults differ from the
  // private-cache reference: the shared cache answered queries another
  // program solved first.
  uint64_t SolverWorkDiffers = 0;
  ParallelCheckOptions PO;
  PO.Jobs = Cfg.Threads;
  PO.ShareProverCache = true;
  PO.VcParallelism = true;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Cfg.Seconds));
  for (size_t Round = 0; Round < MinRounds || Clock::now() < Deadline;
       ++Round) {
    bool Traced = Cfg.Trace && Round % 2 == 1;
    // The registry carries each program's phase/total_us: the only way
    // to see a program's time to verdict inside a batch from outside.
    support::MetricsRegistry Reg;
    PO.Metrics = &Reg;
    Clock::time_point T0 = Clock::now();
    ParallelCheckResult Res;
    {
      ScopedSpan S(Traced ? &Log : nullptr, "parallel.batch", Round);
      Res = checkJobs(Jobs, PO);
    }
    double RoundS = usBetween(T0, Clock::now()) / 1e6;
    LayerRow Row;
    for (size_t I = 0; I < Ps.size(); ++I) {
      const CheckReport &R = Res.Programs[I].Report;
      judge(*O, I, R, Out, /*PrivateCache=*/false);
      SolverWorkDiffers +=
          !WorkCounters::of(R).sameSolverWork(O->referenceCounters(I));
      L.ProgramMs[I].push_back(
          Reg.value("program/" + Ps[I].Name + "/phase/total_us").value_or(0) /
          1000.0);
      if (Traced) {
        addReportCounters(Row, Ps[I].Name, R);
        addPhaseTimers(Row, Reg, Ps[I].Name);
      }
    }
    if (Traced) {
      double Hits = Reg.value("cache/shared/hits").value_or(0);
      double Misses = Reg.value("cache/shared/misses").value_or(0);
      Row["constraints.cache.hit_share"] = Hits / std::max(1.0, Hits + Misses);
      double Busy = double(Reg.value("pool/workers").value_or(1)) *
                    Reg.value("parallel/wall_us").value_or(1);
      Row["pool.idle_share"] = Reg.value("pool/idle_us").value_or(0) / Busy;
      Row["pool.steals"] = Reg.value("pool/steals").value_or(0);
    }
    L.endRound(RoundS, Traced, Row);
  }
  std::fprintf(stderr,
               "solver-work counters differ from the private-cache "
               "reference on %llu of %zu checks\n",
               (unsigned long long)SolverWorkDiffers,
               L.RoundS.size() * Ps.size());
  finishInProcess(Cfg, *O, L, SetupS, Cfg.Trace ? &Log : nullptr, Out);
  writeTrace(Cfg, Log);
}

//===----------------------------------------------------------------------===//
// serve-recheck
//===----------------------------------------------------------------------===//

struct ClientLog {
  std::vector<double> LatencyMs;
  std::vector<std::pair<size_t, double>> ProgramMs;
  uint64_t Timeouts = 0;
  uint64_t Unsent = 0;
  uint64_t Requests = 0;
  RunResult Result;
};

void runServeRecheck(const RunConfig &Cfg, RunResult &Out) {
  namespace fs = std::filesystem;
  const std::vector<corpus::CorpusProgram> &Ps = programs();
  const unsigned DaemonJobs = std::max(1u, Cfg.Threads / 2);
  const unsigned Clients = std::max(1u, Cfg.Threads - DaemonJobs);
  const std::string Socket = Cfg.WorkDir + "/serve.sock";
  const std::string MetricsPath = Cfg.WorkDir + "/serve-metrics.json";

  // Set-up: the reference, then daemon start until the first ping and a
  // pass that fills the certificate store, each SetupRepeats times,
  // keeping the last daemon.
  double RefS = 0;
  std::unique_ptr<Oracle> O = setupReference(Cfg, RefS, Out);
  Daemon D;
  std::vector<double> DaemonTimes;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    std::string CertDir = Cfg.WorkDir + "/serve-certs";
    fs::remove_all(CertDir);
    std::string Error;
    if (!D.start(Cfg.ServeBin, Socket, DaemonJobs, CertDir, MetricsPath,
                 Error)) {
      ++Out.Attempted;
      Out.fail("daemon: " + Error, false);
      return;
    }
    for (size_t I = 0; I < Ps.size(); ++I)
      judgeResponse(*O, I,
                    requestOnce(Socket, I, Ps[I].Name, Ps[I].Asm,
                                Ps[I].Policy, nullptr),
                    Out);
    DaemonTimes.push_back(usBetween(T0, Clock::now()) / 1e6);
    if (Rep + 1 < SetupRepeats)
      D.stop();
  }
  const double SetupS = RefS + median(DaemonTimes);

  SpanLog Log;
  SpanLog *Spans = Cfg.Trace ? &Log : nullptr;
  std::vector<ClientLog> Logs(Clients);
  const auto Window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Cfg.Seconds));
  const Clock::time_point Deadline = Clock::now() + Window;
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> RssKb{0};
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        ClientLog &CL = Logs[C];
        std::mt19937_64 Rng(Cfg.Seed * 1000003 + C);
        std::uniform_real_distribution<double> Coin(0, 1);
        double ServedS = 0;
        while (Clock::now() < Deadline) {
          size_t I = Rng() % Ps.size();
          std::string Asm = Ps[I].Asm;
          // An edited request misses the store, checks cold and writes a
          // certificate beside the reads.
          if (Coin(Rng) < EditShare)
            Asm += "\n! edit " + std::to_string(C) + "-" +
                   std::to_string(CL.Requests) + "\n";
          uint64_t Req = (uint64_t(C) << 32) | CL.Requests++;
          Roundtrip RT = requestOnce(Socket, Req, Ps[I].Name, Asm,
                                     Ps[I].Policy, Spans);
          if (!RT.Ok) {
            // The daemon missed a deadline (or is gone): this request and
            // the rest this client would have sent fail. The rest is what
            // fits between this request's start and the end of the window
            // at this client's own service rate so far.
            CL.Timeouts += RT.TimedOut;
            judgeResponse(*O, I, RT, CL.Result);
            double LeftS =
                std::max(0.0, usBetween(RT.Start, Deadline) / 1e6);
            double PerReq =
                CL.LatencyMs.empty() ? Daemon::TimeoutMs / 1000.0
                                     : ServedS / CL.LatencyMs.size();
            CL.Unsent = static_cast<uint64_t>(
                std::max(0.0, std::floor(LeftS / PerReq) - 1));
            CL.Result.Attempted += CL.Unsent;
            for (uint64_t K = 0; K < CL.Unsent; ++K)
              CL.Result.fail("unsent after the daemon missed a deadline",
                             false);
            return;
          }
          if (judgeResponse(*O, I, RT, CL.Result)) {
            CL.LatencyMs.push_back(RT.TotalUs / 1000);
            CL.ProgramMs.push_back({I, RT.TotalUs / 1000});
            ServedS += RT.TotalUs / 1e6;
          }
          // Daemon VmHWM after a fixed amount of traffic (ten corpora).
          if (Completed.fetch_add(1) + 1 == 10 * Ps.size())
            RssKb.store(procStatusKb(D.pid(), "VmHWM:"));
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  // Clients waiting out a wedged daemon run past the window; goodput is
  // still per second of the window.
  const double ElapsedS = Cfg.Seconds;
  if (RssKb.load() == 0)
    RssKb.store(procStatusKb(D.pid(), "VmHWM:"));

  std::vector<double> Latency;
  std::vector<std::vector<double>> PerProgram(Ps.size());
  uint64_t Timeouts = 0, Unsent = 0;
  for (ClientLog &CL : Logs) {
    Latency.insert(Latency.end(), CL.LatencyMs.begin(), CL.LatencyMs.end());
    for (const auto &[I, Ms] : CL.ProgramMs)
      PerProgram[I].push_back(Ms);
    Timeouts += CL.Timeouts;
    Unsent += CL.Unsent;
    Out.Attempted += CL.Result.Attempted;
    Out.Failed += CL.Result.Failed;
    Out.Correct = Out.Correct && CL.Result.Correct;
    for (std::string &P : CL.Result.Problems)
      if (Out.Problems.size() < 50)
        Out.Problems.push_back(std::move(P));
  }
  std::vector<double> ProgramMedians;
  for (const std::vector<double> &V : PerProgram)
    if (!V.empty())
      ProgramMedians.push_back(median(V));
  double Goodput = Latency.size() / ElapsedS;

  // The daemon writes its --metrics-json only at a clean stop.
  const bool Clean = D.stop();
  std::string Metrics, Error;
  if (Clean)
    Metrics = support::readWholeFile(MetricsPath, Error).value_or("");
  std::fprintf(stderr,
               "serve-recheck: %u clients, daemon --jobs %u; %zu correct "
               "responses, %llu timeouts, %llu unsent; daemon %s\n",
               Clients, DaemonJobs, Latency.size(),
               (unsigned long long)Timeouts, (unsigned long long)Unsent,
               Clean ? "stopped cleanly" : "had to be killed");
  std::fprintf(stderr, "req_p99_ms over %zu samples\n", Latency.size());

  if (!Cfg.Trace) {
    Out.set("setup_s", SetupS, "s");
    Out.set("corpus_s", Goodput > 0 ? Ps.size() / Goodput : ElapsedS, "s");
    Out.set("check_ms_geomean", geomean(ProgramMedians), "ms");
    Out.set("peak_rss_mb", RssKb.load() / 1024.0, "MB");
    Out.set("req_p50_ms", percentile(Latency, 50), "ms");
    Out.set("req_p99_ms", percentile(Latency, 99), "ms");
    Out.set("goodput_rps", Goodput, "1/s");
    Out.set("failed_share",
            Out.Attempted ? double(Out.Failed) / Out.Attempted : 0, "share");
    return;
  }

  // serve.* rows come from this loop, cert.* from the daemon's own
  // counters (written at a clean stop), the in-process layers from the
  // census.
  LayerRow Layers;
  Layers["serve.connect_us"] = Log.medianUs("serve.connect");
  Layers["serve.roundtrip_us"] = Log.medianUs("serve.roundtrip");
  Layers["serve.connections"] = jsonNumber(Metrics, "serve", "connections");
  Layers["serve.shed"] = jsonNumber(Metrics, "serve", "shed");
  Layers["serve.timeouts"] = Timeouts;
  Layers["cert.hits"] = jsonNumber(Metrics, "store", "hits");
  Layers["cert.misses"] = jsonNumber(Metrics, "store", "misses");
  Layers["cert.revalidate_failed"] =
      jsonNumber(Metrics, "store", "revalidate_failed");
  LoopLog L(Ps.size());
  for (int Round = 0; Round < 2; ++Round) {
    LayerRow Row;
    for (size_t I = 0; I < Ps.size(); ++I) {
      support::MetricsRegistry Reg;
      SafetyChecker::Options CO;
      CO.Metrics = &Reg;
      CO.MetricScope = "program/" + Ps[I].Name;
      CheckReport R = checkCold(Ps[I].Asm, Ps[I].Policy, CO);
      judge(*O, I, R, Out);
      addReportCounters(Row, Ps[I].Name, R);
      addPhaseTimers(Row, Reg, Ps[I].Name);
      L.ProgramMs[I].push_back(
          Reg.value("program/" + Ps[I].Name + "/phase/total_us").value_or(0) /
          1000.0);
    }
    L.endRound(0, true, Row);
  }
  for (const auto &[Name, Vs] : L.Layers)
    Layers[Name] = median(Vs);
  for (size_t I = 0; I < Ps.size(); ++I)
    Layers["check_ms." + Ps[I].Name] = median(L.ProgramMs[I]);
  reportMemory(L, Layers);
  Layers["constraints.cache.hit_share"] =
      Layers["prover.cache_hits"] /
      std::max(1.0, Layers["constraints.sat_queries"]);
  Layers.erase("prover.cache_hits");
  Layers["pool.idle_share"] = 0;
  Layers["pool.steals"] = 0;
  Layers["trace.overhead_pct"] = 0;
  census(Cfg, *O, Log, /*WithServe=*/false, Out, Layers);
  Out.Metrics.clear();
  for (const auto &[Name, V] : Layers)
    Out.Metrics[Name] = {V, ""};
  writeTrace(Cfg, Log);
}

} // namespace

bool runWorkload(const RunConfig &Cfg, RunResult &Out) {
  if (Cfg.Workload == "cold-seq")
    runColdSeq(Cfg, Out);
  else if (Cfg.Workload == "batch-parallel")
    runBatchParallel(Cfg, Out);
  else if (Cfg.Workload == "serve-recheck")
    runServeRecheck(Cfg, Out);
  else
    return false;
  return true;
}

} // namespace perfbench
