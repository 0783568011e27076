#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ariesrh::obs {

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(uint64_t value) {
  // Prometheus `le` semantics: value <= bound lands in that bucket.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.counts[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

uint64_t Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      if (i >= bounds.size()) {
        // Overflow bucket: no upper bound; report the largest finite bound.
        return bounds.empty() ? 0 : bounds.back();
      }
      const uint64_t lo = i == 0 ? 0 : bounds[i - 1];
      const uint64_t hi = bounds[i];
      const double into =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + static_cast<uint64_t>(static_cast<double>(hi - lo) *
                                        std::clamp(into, 0.0, 1.0));
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0 : bounds.back();
}

const std::vector<uint64_t>& DefaultLatencyBoundsNs() {
  static const std::vector<uint64_t> kBounds = {
      100,        250,        500,        1'000,      2'500,
      5'000,      10'000,     25'000,     50'000,     100'000,
      250'000,    500'000,    1'000'000,  2'500'000,  5'000'000,
      10'000'000, 25'000'000, 50'000'000, 100'000'000, 250'000'000,
      500'000'000, 1'000'000'000};
  return kBounds;
}

uint64_t MetricsRegistry::SumCounters(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (auto it = counters_.lower_bound({name, ""});
       it != counters_.end() && it->first.first == name; ++it) {
    sum += it->second->Value();
  }
  return sum;
}

namespace {

// `name{labels}`, or plain `name` for the unlabelled series.
std::string SeriesName(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

// Comma-separated `"series":render(metric)`, label quotes escaped.
template <typename Map, typename Render>
void JsonSeries(std::ostream& os, const Map& series, const Render& render) {
  for (auto it = series.begin(); it != series.end(); ++it) {
    os << (it == series.begin() ? "\"" : ",\"");
    for (char c : SeriesName(it->first.first, it->first.second)) {
      os << (c == '"' || c == '\\' ? "\\" : "") << c;
    }
    os << "\":";
    render(*it->second);
  }
}

}  // namespace

std::string MetricsRegistry::Expose() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  const std::string* family = nullptr;
  // Opens each family with its `# TYPE` line.
  auto type_line = [&](const std::string& name, const char* type) {
    if (family == nullptr || *family != name) {
      os << "# TYPE " << name << " " << type << "\n";
    }
    family = &name;
  };
  auto scalars = [&](const auto& series, const char* type) {
    for (const auto& [key, metric] : series) {
      type_line(key.first, type);
      os << SeriesName(key.first, key.second) << " " << metric->Value() << "\n";
    }
    family = nullptr;
  };
  scalars(counters_, "counter");
  scalars(gauges_, "gauge");
  for (const auto& [key, hist] : histograms_) {
    const auto& [name, labels] = key;
    type_line(name, "histogram");
    // `le` joins the series' own labels.
    const std::string bucket =
        name + "_bucket{" + labels + (labels.empty() ? "" : ",") + "le=\"";
    const Histogram::Snapshot snap = hist->GetSnapshot();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.bounds.size(); ++i) {
      cumulative += snap.counts[i];
      os << bucket << snap.bounds[i] << "\"} " << cumulative << "\n";
    }
    os << bucket << "+Inf\"} " << snap.count << "\n"
       << SeriesName(name + "_sum", labels) << " " << snap.sum << "\n"
       << SeriesName(name + "_count", labels) << " " << snap.count << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  auto value = [&os](const auto& metric) { os << metric.Value(); };
  os << "{\"counters\":{";
  JsonSeries(os, counters_, value);
  os << "},\"gauges\":{";
  JsonSeries(os, gauges_, value);
  os << "},\"histograms\":{";
  JsonSeries(os, histograms_, [&os](const Histogram& hist) {
    const Histogram::Snapshot snap = hist.GetSnapshot();
    os << "{\"count\":" << snap.count << ",\"sum\":" << snap.sum
       << ",\"mean\":" << snap.Mean() << ",\"p50\":" << snap.P50()
       << ",\"p95\":" << snap.P95() << ",\"p99\":" << snap.P99() << "}";
  });
  os << "}}";
  return os.str();
}

}  // namespace ariesrh::obs
