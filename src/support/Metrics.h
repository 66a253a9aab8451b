//===- Metrics.h - Typed counter/gauge/histogram registry -------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe registry of named metrics — the unified export surface
/// for everything the checker used to keep in scattered private structs:
/// per-phase wall-clock times (the paper's Figure 9 rows), prover and
/// cache counters, and thread-pool activity.
///
/// Three metric kinds:
///
///   - Counter: monotonically increasing uint64 (queries, evictions,
///     accumulated microseconds);
///   - Gauge: a settable int64 snapshot (resident cache entries, jobs);
///   - Histogram: log2-bucketed distribution of uint64 observations with
///     count/sum/min/max (phase latencies across a corpus).
///
/// Metric names are '/'-separated paths ("program/Sum/phase/global_us");
/// the JSON emitter nests them into objects along the separators, so one
/// flat registry serializes as a structured per-program document.
///
/// Concurrency and overhead: metric handles are stable pointers whose
/// update operations are single relaxed atomics, safe from any thread.
/// Registration (name lookup) takes a mutex — callers on hot paths
/// should look a handle up once and keep it. Components accept a
/// `MetricsRegistry *` and treat null as "observability off"; with no
/// registry attached the cost is one pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_SUPPORT_METRICS_H
#define MCSAFE_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mcsafe {
namespace support {

/// A monotonically increasing counter.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  /// Raises the counter to \p Total if it is below: publishing a running
  /// total again never counts an event twice. Calls must not race one
  /// another.
  void raiseTo(uint64_t Total) {
    if (Total > value())
      inc(Total - value());
  }

private:
  std::atomic<uint64_t> V{0};
};

/// A settable instantaneous value.
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// A log2-bucketed distribution of non-negative observations.
class Histogram {
public:
  /// Bucket B counts observations in [2^(B-1), 2^B); bucket 0 counts 0.
  static constexpr unsigned NumBuckets = 64;

  void observe(uint64_t Value);

  struct Snapshot {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = 0; ///< Meaningful only when Count > 0.
    uint64_t Max = 0;
    std::array<uint64_t, NumBuckets> Buckets{};
  };
  Snapshot snapshot() const;

private:
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
};

/// A named collection of metrics with deterministic (sorted) emission.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Finds or creates the metric. The returned reference is stable for
  /// the registry's lifetime. Registering one name with two different
  /// kinds keeps the first kind and returns a distinct shadow metric of
  /// the requested kind that is never emitted (misuse stays safe).
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// The current value of a counter (or gauge) by name; nullopt when the
  /// name is not registered. For reading results back out of a run.
  std::optional<int64_t> value(std::string_view Name) const;

  /// Emits every metric as nested JSON, splitting names on '/'. Counters
  /// and gauges become numbers; histograms become
  /// {"count","sum","min","max"} objects. Keys are sorted, so the output
  /// is byte-deterministic for a given set of values.
  void writeJson(std::ostream &OS) const;

private:
  struct Metric {
    // Exactly one is non-null.
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<Histogram> H;
  };

  mutable std::mutex M;
  std::map<std::string, Metric, std::less<>> Metrics;
  /// Kind-mismatched registrations land here, off the emission path.
  std::vector<std::unique_ptr<Metric>> Shadows;
};

/// Formats a seconds value from a microsecond metric. Convenience for
/// table renderers reading "*_us" counters.
inline double usToSeconds(int64_t Us) {
  return static_cast<double>(Us) / 1e6;
}

} // namespace support
} // namespace mcsafe

#endif // MCSAFE_SUPPORT_METRICS_H
