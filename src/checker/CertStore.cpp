//===- CertStore.cpp ------------------------------------------------------===//

#include "checker/CertStore.h"

#include "checker/ReportCodec.h"
#include "constraints/Serialize.h"
#include "support/Digest.h"
#include "support/FaultInjection.h"
#include "support/Io.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <sstream>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;

//===----------------------------------------------------------------------===//
// Canonical configuration
//===----------------------------------------------------------------------===//

std::string checker::canonicalCheckConfig(const SafetyChecker::Options &O) {
  // Every option that can change a verdict or a report byte, rendered
  // key=value in a fixed order. The string is byte-compared on load, so
  // formatting here IS the compatibility contract: changing it (or what
  // feeds it) requires bumping CertStore::FormatVersion.
  std::ostringstream OS;
  OS << "lint=" << O.Lint << ";lint_reject=" << O.LintReject
     << ";known_bits=" << O.KnownBits
     << ";prune_dead_regs=" << O.PruneDeadRegs
     << ";fail_soft=" << O.FailSoft;
  const GlobalVerifyOptions &G = O.Global;
  OS << ";g.max_iterations=" << G.MaxIterations
     << ";g.generalization=" << G.UseGeneralization
     << ";g.reuse_invariants=" << G.ReuseInvariants
     << ";g.fail_soft=" << G.FailSoft;
  const Prover::Options &P = O.ProverOpts;
  OS << ";p.dnf_max_disjuncts=" << P.DnfMaxDisjuncts
     << ";p.dnf_max_atoms=" << P.DnfMaxAtoms
     << ";p.omega_max_steps=" << P.Omega.MaxSteps
     << ";p.omega_max_ndiv_modulus=" << P.Omega.MaxNdivModulus
     << ";p.enable_congruence=" << P.EnableCongruence;
  const support::GovernorLimits &L = O.Limits;
  // Wall-clock deadlines make outcomes timing-dependent; such runs are
  // never certified (they carry ResourceExhausted failures when the
  // deadline fires, and DeadlineMs is still part of the key so limited
  // and unlimited runs never share certificates).
  OS << ";l.deadline_ms=" << L.DeadlineMs
     << ";l.prover_steps=" << L.ProverSteps
     << ";l.memory_bytes=" << L.MemoryBytes
     << ";l.external_governor=" << (O.Governor != nullptr);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Certificate payload serialization
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[4] = {'M', 'C', 'R', 'T'};

std::string serializePayload(const Certificate &Cert) {
  ByteWriter W;
  W.str(Cert.Asm);
  W.str(Cert.Policy);
  W.str(Cert.Config);
  serializeCheckReport(W, Cert.Report);

  // One shared pool for every formula the certificate mentions; pool
  // indices are assigned before the pool is emitted.
  FormulaPoolWriter Pool;
  struct InvIx {
    uint32_t Qh, Linv;
  };
  std::vector<InvIx> InvIxs;
  InvIxs.reserve(Cert.Invariants.size());
  for (const SynthesizedInvariant &Inv : Cert.Invariants)
    InvIxs.push_back({Pool.add(Inv.Qh), Pool.add(Inv.Linv)});
  std::vector<uint32_t> WitIxs;
  WitIxs.reserve(Cert.Witnesses.size());
  for (const QueryRecord &Q : Cert.Witnesses)
    WitIxs.push_back(Pool.add(Q.F));
  Pool.writeTo(W);

  W.u32(static_cast<uint32_t>(Cert.Invariants.size()));
  for (size_t I = 0; I < Cert.Invariants.size(); ++I) {
    const SynthesizedInvariant &Inv = Cert.Invariants[I];
    W.i64(Inv.LoopIdx);
    W.u32(InvIxs[I].Qh);
    W.u32(InvIxs[I].Linv);
    W.u8(Inv.EntryEstablished ? 1 : 0);
  }

  W.u32(static_cast<uint32_t>(Cert.Witnesses.size()));
  for (size_t I = 0; I < Cert.Witnesses.size(); ++I) {
    const QueryRecord &Q = Cert.Witnesses[I];
    W.u32(WitIxs[I]);
    W.u64(Q.Budget.DnfMaxDisjuncts);
    W.u64(Q.Budget.DnfMaxAtoms);
    W.u64(Q.Budget.OmegaMaxSteps);
    W.i64(Q.Budget.OmegaMaxNdivModulus);
    W.u64(Q.Budget.SolverTiers);
    W.u8(static_cast<uint8_t>(Q.Outcome.Result));
    W.u8(Q.Outcome.ApproximatedForall ? 1 : 0);
  }
  return W.take();
}

bool parsePayload(std::string_view Payload, Certificate &Out) {
  ByteReader R(Payload);
  Out.Asm = std::string(R.str());
  Out.Policy = std::string(R.str());
  Out.Config = std::string(R.str());
  if (!R.ok() || !deserializeCheckReport(R, Out.Report))
    return false;

  // Formula re-interning touches the variable pool; suspending any
  // active VarNamespace keeps a check's deterministic fresh-name
  // sequence independent of whether its certificate loaded. The formulas
  // go into the base generation: a long-lived prover cache admits only
  // base keys, so that is what lets a daemon's later requests hit the
  // revalidation results of earlier ones. Global names make repeated
  // loads of one certificate dedup, so the base grows with the number of
  // distinct certificates, not with requests.
  VarScopeSuspend NoScope;
  FormulaGenerationScope InBase(nullptr);
  std::optional<std::vector<FormulaRef>> Pool = loadFormulaPool(R);
  if (!Pool)
    return false;

  uint32_t NInvariants = R.u32();
  if (!R.ok() || NInvariants > R.remaining() / 17)
    return false;
  Out.Invariants.reserve(NInvariants);
  for (uint32_t I = 0; I < NInvariants; ++I) {
    int64_t LoopIdx = R.i64();
    uint32_t QhIx = R.u32();
    uint32_t LinvIx = R.u32();
    uint8_t Entry = R.u8();
    if (!R.ok() || LoopIdx < INT32_MIN || LoopIdx > INT32_MAX ||
        QhIx >= Pool->size() || LinvIx >= Pool->size() || Entry > 1)
      return false;
    Out.Invariants.push_back({static_cast<int32_t>(LoopIdx), (*Pool)[QhIx],
                              (*Pool)[LinvIx], Entry != 0});
  }

  uint32_t NWitnesses = R.u32();
  if (!R.ok() || NWitnesses > R.remaining() / 46)
    return false;
  Out.Witnesses.reserve(NWitnesses);
  for (uint32_t I = 0; I < NWitnesses; ++I) {
    QueryRecord Q;
    uint32_t FIx = R.u32();
    Q.Budget.DnfMaxDisjuncts = R.u64();
    Q.Budget.DnfMaxAtoms = R.u64();
    Q.Budget.OmegaMaxSteps = R.u64();
    Q.Budget.OmegaMaxNdivModulus = R.i64();
    Q.Budget.SolverTiers = R.u64();
    uint8_t Result = R.u8();
    uint8_t Approx = R.u8();
    if (!R.ok() || FIx >= Pool->size() ||
        Result > static_cast<uint8_t>(SatResult::Unknown) || Approx > 1)
      return false;
    Q.F = (*Pool)[FIx];
    Q.Outcome.Result = static_cast<SatResult>(Result);
    Q.Outcome.ApproximatedForall = Approx != 0;
    Out.Witnesses.push_back(Q);
  }
  // Trailing garbage is as suspect as truncation.
  return R.atEnd();
}

} // namespace

//===----------------------------------------------------------------------===//
// Revalidation
//===----------------------------------------------------------------------===//

bool checker::revalidateCertificate(const Certificate &Cert,
                                    const SafetyChecker::Options &Opts) {
  // The revalidation prover mirrors the cold phase-5 prover exactly
  // (including the congruence/known-bits coupling) but never charges a
  // governor: warm validation must not perturb shared step budgets.
  Prover::Options PO = Opts.ProverOpts;
  PO.EnableCongruence = PO.EnableCongruence && Opts.KnownBits;
  PO.Governor = nullptr;
  PO.Omega.Governor = nullptr;
  Prover P(PO, Opts.SharedProverCache);
  const QueryBudget Current = P.budget();
  for (const QueryRecord &W : Cert.Witnesses) {
    // A budget drift that somehow escaped the config byte-compare makes
    // the witnesses incomparable with what this prover would compute.
    if (!(W.Budget == Current))
      return false;
    // Only the Unsat witnesses support the verdict: an Unsat answer is
    // what proves a verification condition (checkValid proves F by
    // refuting not(F)). Sat/Unknown outcomes only ever weakened the cold
    // run's claims, so accepting them unchecked stays fail-sound.
    if (W.Outcome.Result != SatResult::Unsat)
      continue;
    if (P.checkSat(W.F) != SatResult::Unsat)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The store
//===----------------------------------------------------------------------===//

CertStore::CertStore(std::string Dir) : Dir(std::move(Dir)) {
  std::error_code Ec;
  std::filesystem::create_directories(this->Dir, Ec);
  // Failure is deferred: loads miss, saves count WriteFailures.
}

uint64_t CertStore::procedureKey(std::string_view Asm,
                                 std::string_view Policy,
                                 std::string_view Config) {
  support::Digest D;
  D.add(FormatVersion);
  D.add(support::digestBytes(Asm));
  D.add(support::digestBytes(Policy));
  D.add(support::digestBytes(Config));
  return D.value();
}

std::string CertStore::pathFor(uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.mcert",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + Name;
}

CertStore::LoadOutcome CertStore::load(uint64_t Key, std::string_view Asm,
                                       std::string_view Policy,
                                       std::string_view Config,
                                       Certificate &Out) {
  const std::string Path = pathFor(Key);
  std::string Bytes;
  {
    // EINTR-retrying reads: a signal landing mid-read in a daemon must
    // not masquerade as a missing or corrupt certificate.
    std::string ReadError;
    support::ReadFileError Kind = support::ReadFileError::None;
    std::optional<std::string> Data =
        support::readWholeFile(Path, ReadError, &Kind);
    if ((!Data && Kind == support::ReadFileError::CannotOpen) ||
        support::faultPoint("cert/open")) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      return LoadOutcome::Miss;
    }
    // A read error or an empty file is a damaged entry, not a miss.
    if (!Data || support::faultPoint("cert/read")) {
      CorruptCount.fetch_add(1, std::memory_order_relaxed);
      return LoadOutcome::Corrupt;
    }
    Bytes = std::move(*Data);
  }

  auto Corrupt = [&] {
    CorruptCount.fetch_add(1, std::memory_order_relaxed);
    return LoadOutcome::Corrupt;
  };

  ByteReader R(Bytes);
  char FileMagic[4] = {};
  for (char &B : FileMagic)
    B = static_cast<char>(R.u8());
  if (!R.ok() || !std::equal(FileMagic, FileMagic + 4, Magic))
    return Corrupt();
  if (R.u32() != FormatVersion || !R.ok())
    return Corrupt();
  uint64_t FileKey = R.u64();
  uint64_t PayloadDigest = R.u64();
  uint32_t PayloadSize = R.u32();
  if (!R.ok() || FileKey != Key || PayloadSize != R.remaining())
    return Corrupt();
  std::string_view Payload(Bytes.data() + R.position(), PayloadSize);
  if (support::digestBytes(Payload) != PayloadDigest)
    return Corrupt();
  if (!parsePayload(Payload, Out))
    return Corrupt();

  // The key is a digest; byte-comparing the stored inputs against what
  // the caller is actually checking removes the collision risk entirely.
  if (Out.Asm != Asm || Out.Policy != Policy || Out.Config != Config) {
    StaleCount.fetch_add(1, std::memory_order_relaxed);
    return LoadOutcome::Stale;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return LoadOutcome::Hit;
}

bool CertStore::save(uint64_t Key, const Certificate &Cert) {
  const std::string Payload = serializePayload(Cert);
  ByteWriter W;
  for (char B : Magic)
    W.u8(static_cast<uint8_t>(B));
  W.u32(FormatVersion);
  W.u64(Key);
  W.u64(support::digestBytes(Payload));
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.raw(Payload);

  auto Failed = [&] {
    WriteFailures.fetch_add(1, std::memory_order_relaxed);
    return false;
  };

  // Atomic publish: fully write a temporary, then rename over the final
  // path. The temp name must be unique per writer: two daemon requests
  // certifying the same procedure race on the same key, and a shared
  // key-derived temp name would interleave their writes (corrupting the
  // bytes) and let one rename fail on the other's ENOENT. A process-wide
  // counter plus the pid keeps every writer — threads in one daemon,
  // concurrent batch processes — on its own file.
  static std::atomic<uint64_t> TmpSerial{0};
  const std::string Path = pathFor(Key);
  char Suffix[64];
  std::snprintf(Suffix, sizeof(Suffix), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    TmpSerial.fetch_add(1, std::memory_order_relaxed)));
  const std::string Tmp = Path + Suffix;
  if (support::faultPoint("cert/write"))
    return Failed();
  {
    int Fd = static_cast<int>(support::retryEintr([&] {
      return ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    }));
    if (Fd < 0)
      return Failed();
    // writeAllFd retries EINTR and short writes; anything else is a real
    // I/O failure and the temp file is discarded.
    bool Ok = support::writeAllFd(Fd, W.bytes());
    support::closeFd(Fd);
    if (!Ok) {
      std::remove(Tmp.c_str());
      return Failed();
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Failed();
  }
  Writes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CertStore::Stats CertStore::stats() const {
  Stats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Stale = StaleCount.load(std::memory_order_relaxed);
  S.Corrupt = CorruptCount.load(std::memory_order_relaxed);
  S.RevalidateFailed = RevalidateFailed.load(std::memory_order_relaxed);
  S.Writes = Writes.load(std::memory_order_relaxed);
  S.WriteFailures = WriteFailures.load(std::memory_order_relaxed);
  return S;
}

void CertStore::publish(support::MetricsRegistry &Reg) const {
  // Raises each counter to the store's running total, so publishing
  // again (a live daemon answers every stats request this way) never
  // counts an event twice.
  auto Put = [&Reg](const char *Name, uint64_t Total) {
    Reg.counter(Name).raiseTo(Total);
  };
  Stats S = stats();
  Put("cert/store/hits", S.Hits);
  Put("cert/store/misses", S.Misses);
  Put("cert/store/stale", S.Stale);
  Put("cert/store/corrupt", S.Corrupt);
  Put("cert/store/revalidate_failed", S.RevalidateFailed);
  Put("cert/store/writes", S.Writes);
  Put("cert/store/write_failures", S.WriteFailures);
}
