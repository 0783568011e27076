// Metrics registry: typed, named counters, gauges, and fixed-bucket latency
// histograms, cheap enough for the engine's hot paths.
//
// Design rules:
//   * Updates are relaxed atomics — an increment is one uncontended RMW, no
//     locks, no allocation.
//   * Registration is lazy and per-series: GetCounter("x", `shard="1"`)
//     creates the series x{shard="1"} on first use and returns a stable
//     pointer callers cache; an empty label list is the plain name x. The
//     registry mutex guards only the series maps, never the update path.
//   * Exposition is pull-based: Expose() renders a Prometheus-style text
//     page (one `# TYPE` line per family), ToJson() a machine-readable
//     snapshot keyed by series name (histograms include p50/p95/p99
//     estimated by linear interpolation within a bucket).
//
// util::Stats — the flat counter struct the benchmarks snapshot — is a thin
// view over this registry: Stats::AttachObservability() rebinds every Stats
// field onto a registry-owned counter series, so `++stats->log_appends` and
// `registry.GetCounter("ariesrh_log_appends", labels)` observe the same
// storage.

#ifndef ARIESRH_OBS_METRICS_H_
#define ARIESRH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.h"

namespace ariesrh::obs {

/// Monotonically increasing counter. Relaxed atomics: safe for concurrent
/// writers, and totals are exact once writers quiesce.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  /// Raw cell, for binding util::Stats fields onto registry storage.
  std::atomic<uint64_t>* cell() { return &value_; }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value (queue depths, live transaction count).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket upper bounds are set at construction
/// (ascending, +Inf bucket implicit); Observe is a bucket search plus three
/// relaxed increments. Quantiles are estimated from the bucket counts.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> bounds;  ///< upper bounds, ascending
    std::vector<uint64_t> counts;  ///< bounds.size() + 1 (last = overflow)

    /// Quantile estimate (q in [0, 1]) by linear interpolation within the
    /// containing bucket; overflow-bucket hits report the largest bound.
    uint64_t Quantile(double q) const;
    uint64_t P50() const { return Quantile(0.50); }
    uint64_t P95() const { return Quantile(0.95); }
    uint64_t P99() const { return Quantile(0.99); }
    double Mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
  };

  Snapshot GetSnapshot() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Default latency bucket bounds in nanoseconds: 100ns .. 1s on a roughly
/// 1-2.5-5 progression, sized for the simulated engine's in-memory ops.
const std::vector<uint64_t>& DefaultLatencyBoundsNs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create the series `name{labels}`. Returned pointers are
  /// stable for the registry's lifetime; hot paths call once and cache.
  Counter* GetCounter(const std::string& name, const std::string& labels = "") {
    return Get(counters_, name, labels);
  }
  Gauge* GetGauge(const std::string& name, const std::string& labels = "") {
    return Get(gauges_, name, labels);
  }
  Histogram* GetHistogram(
      const std::string& name,
      const std::vector<uint64_t>& bounds = DefaultLatencyBoundsNs(),
      const std::string& labels = "") {
    return Get(histograms_, name, labels, bounds);
  }

  /// Lookup without creation; nullptr if the series was never registered.
  Counter* FindCounter(const std::string& name,
                       const std::string& labels = "") const {
    return Find(counters_, name, labels);
  }
  Gauge* FindGauge(const std::string& name,
                   const std::string& labels = "") const {
    return Find(gauges_, name, labels);
  }
  Histogram* FindHistogram(const std::string& name,
                           const std::string& labels = "") const {
    return Find(histograms_, name, labels);
  }

  /// Sum over every series of counter family `name`.
  uint64_t SumCounters(const std::string& name) const;

  /// Prometheus-style text exposition: `# TYPE` comments, counter/gauge
  /// sample lines, histogram `_bucket{le=...}` / `_sum` / `_count` series.
  std::string Expose() const;

  /// JSON snapshot: counters and gauges by series name, histograms with
  /// count, sum, mean, and p50/p95/p99.
  std::string ToJson() const;

 private:
  /// (name, labels): a family's series sort together, unlabelled first.
  using SeriesKey = std::pair<std::string, std::string>;
  template <typename T>
  using SeriesMap = std::map<SeriesKey, std::unique_ptr<T>>;

  /// Find-or-create / find in one of the series maps.
  template <typename T, typename... Args>
  T* Get(SeriesMap<T>& series, const std::string& name,
         const std::string& labels, const Args&... args) {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<T>& slot = series[{name, labels}];
    if (slot == nullptr) slot = std::make_unique<T>(args...);
    return slot.get();
  }
  template <typename T>
  T* Find(const SeriesMap<T>& series, const std::string& name,
          const std::string& labels) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series.find({name, labels});
    return it == series.end() ? nullptr : it->second.get();
  }

  mutable std::mutex mu_;
  SeriesMap<Counter> counters_;
  SeriesMap<Gauge> gauges_;
  SeriesMap<Histogram> histograms_;
};

/// Observes the enclosing scope's wall-clock duration (ns) into a
/// histogram. A null histogram disables the timer entirely.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* hist)
      : hist_(hist), start_ns_(hist != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedLatencyTimer() {
    if (hist_ != nullptr) hist_->Observe(MonotonicNanos() - start_ns_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_ns_;
};

}  // namespace ariesrh::obs

#endif  // ARIESRH_OBS_METRICS_H_
