#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ZipfSampler::ZipfSampler(size_t n, double theta) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

size_t ZipfSampler::Next(ariesrh::Random* rng) const {
  // 53 random bits: a uniform double in [0, 1).
  const double u =
      static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
  // First rank whose cumulative probability exceeds u.
  return static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

double ZipfSampler::Probability(size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0 && p <= 100)) throw std::invalid_argument("percentile range");
  // Nearest rank: ceil(p/100 * n), 1-based. The epsilon keeps p*n products
  // such as 0.99 * 100 from rounding up past the exact rank.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()) -
                                1e-9);
  const size_t index =
      rank < 1 ? 0 : std::min(sorted.size(), static_cast<size_t>(rank)) - 1;
  return sorted[index];
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, p);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() >= 3 ? 1 : 0;
  double sum = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

uint32_t SpanLog::Open(const char* name) {
  const auto index = static_cast<uint32_t>(spans_.size());
  Span span;
  span.name = name;
  span.trace_id = trace_id_;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last so the span's own bookkeeping stays outside it.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanLog::Close(uint32_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent && s.parent < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(lo, spans[i].end_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = lo;  // everything before cursor is accounted for
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

void SpanSummary::Add(const std::vector<Span>& log) {
  const std::vector<uint64_t> self = SelfTimes(log);
  for (size_t i = 0; i < log.size(); ++i) {
    durations_ns[log[i].name].push_back(
        static_cast<double>(log[i].end_ns - log[i].start_ns));
    layer_self_ns[LayerOf(log[i].name)] += self[i];
  }
  spans += log.size();
}

double SpanSummary::P50Us(const std::string& name) const {
  auto it = durations_ns.find(name);
  if (it == durations_ns.end() || it->second.empty()) return 0;
  return Median(it->second) / 1e3;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (i > 0) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + number +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

IdlePollers::IdlePollers() {
  const unsigned cpus = std::thread::hardware_concurrency();
  for (unsigned i = 0; i < cpus; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdlePollers::~IdlePollers() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

}  // namespace perfbench
