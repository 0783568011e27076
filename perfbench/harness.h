// Helpers shared by the benchmark's workloads: the Zipf key sampler, the
// percentile rule every reported latency uses, and the span tracer whose
// self times give the per-layer costs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/random.h"

namespace perfbench {

/// steady_clock nanoseconds.
uint64_t NowNs();

/// Draws ranks 0..n-1 with Zipf(theta) popularity (rank 0 hottest) by exact
/// inverse-CDF sampling over a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);

  size_t Next(ariesrh::Random* rng) const;

  /// The probability the sampler assigns to `rank`.
  double Probability(size_t rank) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it. `sorted` must be ascending and non-empty; p is in
/// (0, 100].
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Same rule on unsorted input (sorts a copy).
double Percentile(std::vector<double> values, double p);

/// Median of unsorted input (the 50th percentile by the rule above).
double Median(std::vector<double> values);

/// Mean after dropping the lowest and the highest sample (when there are at
/// least three). Unlike the median it does not flip between the two modes
/// of a bimodal sample, and one outlier cannot move it.
double TrimmedMean(std::vector<double> values);

/// One timed call. Spans of one transaction or restart share `trace_id`;
/// `parent` indexes the enclosing span in the same SpanLog (kNoParent for a
/// root). `name` is a static string "<layer>.<call>".
struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  const char* name = "";
  uint64_t trace_id = 0;
  uint32_t parent = kNoParent;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// The spans one thread recorded, in start order. Kept in memory until the
/// run ends. Not thread-safe: one log per client thread.
class SpanLog {
 public:
  void BeginTrace(uint64_t trace_id) { trace_id_ = trace_id; }
  /// Opens a span under the innermost open one; returns its index.
  uint32_t Open(const char* name);
  void Close(uint32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint64_t trace_id_ = 0;
};

/// Records a span for its lifetime; does nothing when `log` is null (the
/// untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t index_;
};

/// Self time of every span: its duration minus the part of its interval its
/// children cover (overlapping children count once).
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// The layer of a span name: the text before the first '.'.
std::string LayerOf(const char* name);

/// Durations (ns) and summed self time per span name, and summed self time
/// per layer, over any number of span logs.
struct SpanSummary {
  std::map<std::string, std::vector<double>> durations_ns;
  std::map<std::string, uint64_t> layer_self_ns;
  uint64_t spans = 0;

  void Add(const std::vector<Span>& spans);
  /// p50 duration in microseconds of the spans called `name`; 0 if none.
  double P50Us(const std::string& name) const;
};

/// The run's metrics in output order, each a value with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// JSON string literal for `s` (quotes and escapes).
std::string JsonString(const std::string& s);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// One busy-polling thread per CPU at SCHED_IDLE priority, for its own
/// lifetime. The engine's simulated device stalls are sleeps. When a vCPU
/// has nothing to run the hypervisor halts it, and a sleeper scheduled
/// there wakes tens of microseconds late; whether that happens depends on
/// the host, so stall-paced figures moved by up to 70% between runs. With
/// every CPU polling, a stall ends on time. SCHED_IDLE threads run only
/// when nothing else wants the CPU, but they do slow a thread on the same
/// physical core. A poller whose priority cannot be lowered exits at once
/// rather than compete.
class IdlePollers {
 public:
  IdlePollers();
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
