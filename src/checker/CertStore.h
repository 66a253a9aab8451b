//===- CertStore.h - Persistent certificate store ---------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, on-disk store of verification certificates, enabling
/// incremental re-verification: when a procedure's inputs have not
/// changed, a recheck only revalidates the stored certificate instead of
/// re-running typestate propagation, annotation, and invariant synthesis.
///
/// One certificate records everything one check produced: the inputs
/// (assembly, policy, canonical checker configuration), the complete
/// deterministic CheckReport, the loop invariants the induction-iteration
/// engine synthesized, and the prover's query transcript (formula, budget,
/// outcome per distinct sat query). Certificates are keyed by a stable
/// content digest of the inputs; files live at `<dir>/<16-hex-key>.mcert`.
///
/// Trust argument (DESIGN.md has the long form): a warm hit is accepted
/// only after (1) the header key, format version, and payload digest
/// check out, (2) the stored assembly/policy/config bytes compare equal
/// to the inputs being checked — so a digest collision can never replay
/// the wrong certificate — and (3) every Unsat witness (the queries a
/// Safe verdict rests on) is re-discharged through the trusted prover
/// under the identical budget. Since every CheckReport field is a
/// deterministic function of the inputs, the replayed report is
/// byte-identical to what a cold run would produce. Corrupt, truncated,
/// or version-mismatched files are never trusted: they count as
/// cert/store/corrupt and the caller falls back to a cold run.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CHECKER_CERTSTORE_H
#define MCSAFE_CHECKER_CERTSTORE_H

#include "checker/SafetyChecker.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcsafe {
namespace support {
class MetricsRegistry;
} // namespace support

namespace checker {

/// A verification certificate for one (assembly, policy, config) triple.
struct Certificate {
  std::string Asm;
  std::string Policy;
  std::string Config;
  /// The full deterministic report of the cold run, replayed verbatim on
  /// a validated hit.
  CheckReport Report;
  /// Loop invariants synthesized (and certified) by the cold run.
  std::vector<SynthesizedInvariant> Invariants;
  /// The prover transcript: one record per distinct sat query. The Unsat
  /// ones are the proof witnesses revalidation re-discharges.
  std::vector<QueryRecord> Witnesses;
};

/// The canonical, human-readable rendering of every checker option that
/// can change a verdict or a report byte. Part of the certificate key:
/// two runs with different configs never share certificates.
std::string canonicalCheckConfig(const SafetyChecker::Options &Opts);

/// Re-discharges a loaded certificate's Unsat witnesses through a fresh
/// prover configured from \p Opts. Returns false when any witness budget
/// differs from the current prover budget or any Unsat witness fails to
/// re-prove — the caller must then fall back to a cold run.
bool revalidateCertificate(const Certificate &Cert,
                           const SafetyChecker::Options &Opts);

/// The on-disk store. Thread-safe: ParallelCheck workers share one
/// instance; counters are atomic and writes are atomic rename()s of
/// fully-written temporaries.
class CertStore {
public:
  /// Bumped whenever the certificate byte format (or anything feeding
  /// the digests) changes; readers reject every other version.
  /// Version 2: witness budgets carry the SolverSlicing field.
  /// Version 3: the config drops p.enable_tiers, and witness budgets drop
  /// SolverSlicing again (every witness is a whole-query record).
  /// Version 4: typestate widening moved to loop heads and now widens
  /// known bits. A version-3 certificate's cached TypestateNodeVisits and
  /// prover counts no longer match a cold run, and warm report bytes must
  /// equal cold ones.
  /// Version 5: serialized reports carry GlobalVerifyStats::BacksubstSteps.
  /// Version 6: the config drops g.disjunct_trial, g.simplify_junctions,
  /// g.certify_invariants, g.max_formula_size and p.enable_cache (those
  /// behaviours are fixed).
  static constexpr uint32_t FormatVersion = 6;

  enum class LoadOutcome : uint8_t {
    Hit,     ///< Validated certificate loaded.
    Miss,    ///< No file for this key.
    Stale,   ///< File was for different inputs (digest collision).
    Corrupt, ///< File unreadable, truncated, tampered, or wrong version.
  };

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Stale = 0;
    uint64_t Corrupt = 0;
    uint64_t RevalidateFailed = 0;
    uint64_t Writes = 0;
    uint64_t WriteFailures = 0;
  };

  /// Opens (creating, if needed) the store directory. Creation failures
  /// are deferred: loads simply miss and saves count WriteFailures.
  explicit CertStore(std::string Dir);

  /// The procedure key: a stable digest of the format version and the
  /// exact input bytes (assembly text, policy text — which carries the
  /// host typestate — and canonical config).
  static uint64_t procedureKey(std::string_view Asm, std::string_view Policy,
                               std::string_view Config);

  /// Loads and validates the certificate for \p Key. On Hit, \p Out
  /// holds the parsed certificate (formulas re-interned; callers see
  /// canonical FormulaRefs). Bumps the matching counter itself.
  LoadOutcome load(uint64_t Key, std::string_view Asm,
                   std::string_view Policy, std::string_view Config,
                   Certificate &Out);

  /// Serializes and atomically writes the certificate for \p Key.
  /// Returns false (and counts a WriteFailure) on any I/O error; the
  /// store never throws for I/O.
  bool save(uint64_t Key, const Certificate &Cert);

  /// Records that a loaded certificate failed revalidation (counted by
  /// the checker, which owns the revalidation step).
  void noteRevalidationFailure() {
    RevalidateFailed.fetch_add(1, std::memory_order_relaxed);
  }

  Stats stats() const;
  /// Publishes the counters as cert/store/* metrics. Idempotent: each
  /// call brings the registry up to the current totals. Calls must not
  /// race one another.
  void publish(support::MetricsRegistry &Reg) const;

  const std::string &dir() const { return Dir; }
  /// The store file path for \p Key.
  std::string pathFor(uint64_t Key) const;

private:
  std::string Dir;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> StaleCount{0};
  std::atomic<uint64_t> CorruptCount{0};
  std::atomic<uint64_t> RevalidateFailed{0};
  std::atomic<uint64_t> Writes{0};
  std::atomic<uint64_t> WriteFailures{0};
};

} // namespace checker
} // namespace mcsafe

#endif // MCSAFE_CHECKER_CERTSTORE_H
