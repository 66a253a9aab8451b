//===- FaultInjection.h - Deterministic fault plan --------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed-driven fault injection for chaos testing the checking pipeline.
/// A FaultPlan decides, per named site, which calls "fail"; the sites
/// (allocator wrappers, prover steps, cache operations, pool task spawn)
/// then exercise their degraded path: recompute instead of using the
/// cache, run inline instead of spawning, report Unknown instead of a
/// proof. The chaos driver replays the corpus under several seeds and
/// asserts the fail-sound invariant: no crash, no hang, and never a Safe
/// verdict the fault-free run did not also produce.
///
/// The schedule is a pure function of (seed, site name, call index):
/// runs are reproducible from the seed alone. Fault points compile to
/// `false` unless MCSAFE_FAULT_INJECTION is defined, so release builds
/// carry zero overhead.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_SUPPORT_FAULTINJECTION_H
#define MCSAFE_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace mcsafe {
namespace support {

/// A deterministic schedule of injected faults, keyed by site name.
/// Thread-safe; one plan is installed globally for the process.
class FaultPlan {
public:
  /// A plan for every site, or, when \p OnlySite is set, for that site
  /// alone (the others never fire): how a test drives one degraded path.
  explicit FaultPlan(uint64_t Seed, std::string OnlySite = {})
      : Seed(Seed), OnlySite(std::move(OnlySite)) {}

  /// Installs \p Plan as the process-wide plan (nullptr to disarm). The
  /// plan is borrowed, not owned; it must outlive its installation.
  static void install(FaultPlan *Plan);
  static FaultPlan *current();

  /// Should the current call at \p Site fail? Increments the site's call
  /// counter; fires on a per-site period/offset derived from the seed.
  bool shouldFail(const char *Site);

  /// Total faults fired so far across all sites.
  uint64_t firedCount() const;
  uint64_t seed() const { return Seed; }

private:
  struct SiteState {
    uint64_t Calls = 0;
    uint64_t Fired = 0;
    uint64_t Period = 0;
    uint64_t Offset = 0;
  };

  uint64_t Seed;
  std::string OnlySite;
  mutable std::mutex Mu;
  std::map<std::string, SiteState> Sites;
};

#if defined(MCSAFE_FAULT_INJECTION)
/// True when the installed fault plan says this call should fail.
bool faultPoint(const char *Site);
#else
/// Fault injection compiled out: always false, folds away entirely.
constexpr bool faultPoint(const char *) { return false; }
#endif

} // namespace support
} // namespace mcsafe

#endif // MCSAFE_SUPPORT_FAULTINJECTION_H
