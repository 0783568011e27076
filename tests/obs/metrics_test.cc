// Histogram bucket assignment, quantile estimation, and registry behavior.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

namespace ariesrh::obs {
namespace {

TEST(CounterTest, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
}

TEST(HistogramTest, BucketAssignment) {
  // Bounds are upper bounds: value <= bound lands in that bucket.
  Histogram h({10, 100, 1000});
  h.Observe(5);     // bucket 0 (<= 10)
  h.Observe(10);    // bucket 0 (<= 10, upper bound inclusive)
  h.Observe(11);    // bucket 1
  h.Observe(100);   // bucket 1
  h.Observe(500);   // bucket 2
  h.Observe(5000);  // overflow bucket

  Histogram::Snapshot snap = h.GetSnapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 5u + 10 + 11 + 100 + 500 + 5000);
}

TEST(HistogramTest, QuantileWithinBucket) {
  Histogram h({100});
  // 100 observations uniformly "within" the first bucket: interpolation
  // maps quantile q to roughly q * bound.
  for (int i = 0; i < 100; ++i) h.Observe(1);
  Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_GT(snap.P50(), 0u);
  EXPECT_LE(snap.P50(), 100u);
  EXPECT_LE(snap.P50(), snap.P95());
  EXPECT_LE(snap.P95(), snap.P99());
}

TEST(HistogramTest, QuantileAcrossBuckets) {
  Histogram h({10, 20, 30, 40});
  // 10 observations per bucket: p50 falls in the second bucket (10, 20],
  // p99 in the fourth (30, 40].
  for (int i = 0; i < 10; ++i) h.Observe(5);
  for (int i = 0; i < 10; ++i) h.Observe(15);
  for (int i = 0; i < 10; ++i) h.Observe(25);
  for (int i = 0; i < 10; ++i) h.Observe(35);
  Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_GT(snap.P50(), 10u);
  EXPECT_LE(snap.P50(), 20u);
  EXPECT_GT(snap.P99(), 30u);
  EXPECT_LE(snap.P99(), 40u);
}

TEST(HistogramTest, OverflowReportsLargestBound) {
  Histogram h({10, 100});
  for (int i = 0; i < 10; ++i) h.Observe(100000);
  Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.Quantile(0.5), 100u);
  EXPECT_EQ(snap.Quantile(0.99), 100u);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h({10, 100});
  EXPECT_EQ(h.GetSnapshot().P50(), 0u);
  EXPECT_EQ(h.GetSnapshot().Mean(), 0.0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h({1000});
  h.Observe(10);
  h.Observe(20);
  h.Observe(30);
  EXPECT_DOUBLE_EQ(h.GetSnapshot().Mean(), 20.0);
}

TEST(HistogramTest, ConcurrentObservers) {
  Histogram h(DefaultLatencyBoundsNs());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<uint64_t>(t) * 1000 + i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, LazyRegistrationReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Inc();
  EXPECT_EQ(registry.GetCounter("x")->Value(), 1u);
  EXPECT_EQ(registry.FindCounter("never"), nullptr);
  EXPECT_NE(registry.FindCounter("x"), nullptr);
}

TEST(MetricsRegistryTest, ExposeRendersPrometheusText) {
  MetricsRegistry registry;
  registry.GetCounter("ariesrh_log_appends")->Inc(3);
  registry.GetGauge("ariesrh_live_txns")->Set(2);
  registry.GetHistogram("ariesrh_flush_ns", {100, 1000})->Observe(50);

  const std::string page = registry.Expose();
  EXPECT_NE(page.find("# TYPE ariesrh_log_appends counter"),
            std::string::npos);
  EXPECT_NE(page.find("ariesrh_log_appends 3"), std::string::npos);
  EXPECT_NE(page.find("# TYPE ariesrh_live_txns gauge"), std::string::npos);
  EXPECT_NE(page.find("ariesrh_live_txns 2"), std::string::npos);
  EXPECT_NE(page.find("ariesrh_flush_ns_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("ariesrh_flush_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("ariesrh_flush_ns_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h", {10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  const std::string page = registry.Expose();
  EXPECT_NE(page.find("h_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(page.find("h_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(page.find("h_bucket{le=\"+Inf\"} 3"), std::string::npos);
}

TEST(MetricsRegistryTest, ToJsonContainsAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Inc(7);
  registry.GetGauge("g")->Set(-1);
  registry.GetHistogram("h", {10})->Observe(4);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"c\":7"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"h\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// A JSON syntax check covering what ToJson() emits: objects, strings with
// escapes, and numbers.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}
  bool Valid() { return Value() && pos_ == text_.size(); }

 private:
  bool Value() {
    if (Peek('{')) return Object();
    if (Peek('"')) return String();
    return Number();
  }
  bool Object() {
    Eat('{');
    if (Eat('}')) return true;
    do {
      if (!String() || !Eat(':') || !Value()) return false;
    } while (Eat(','));
    return Eat('}');
  }
  bool String() {
    if (!Eat('"')) return false;
    for (; pos_ < text_.size() && text_[pos_] != '"'; ++pos_) {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) return false;
      const std::string escapes = "\"\\/bfnrtu";
      if (text_[pos_] == '\\' &&
          (++pos_ == text_.size() ||
           escapes.find(text_[pos_]) == std::string::npos)) {
        return false;
      }
    }
    return Eat('"');
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::string("+-.eE").find(text_[pos_]) != std::string::npos)) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool Eat(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(MetricsRegistryTest, LabelledSeriesAreSeparateCells) {
  MetricsRegistry registry;
  Counter* plain = registry.GetCounter("c");
  Counter* one = registry.GetCounter("c", "shard=\"1\"");
  EXPECT_NE(plain, one);
  EXPECT_EQ(registry.GetCounter("c", "shard=\"1\""), one);
  plain->Inc(1);
  one->Inc(2);
  registry.GetCounter("c", "shard=\"0\"")->Inc(4);
  registry.GetCounter("cc")->Inc(8);  // another family
  EXPECT_EQ(registry.FindCounter("c", "shard=\"2\""), nullptr);
  EXPECT_EQ(registry.FindCounter("c", "shard=\"1\""), one);
  EXPECT_EQ(registry.SumCounters("c"), 7u);
  EXPECT_EQ(registry.SumCounters("never"), 0u);
}

TEST(MetricsRegistryTest, ExposeGroupsSeriesUnderOneTypeLine) {
  MetricsRegistry registry;
  registry.GetCounter("c", "shard=\"1\"")->Inc(2);
  registry.GetCounter("c")->Inc(1);
  registry.GetCounter("c", "shard=\"0\"")->Inc(4);
  registry.GetGauge("g", "shard=\"1\"")->Set(-3);
  EXPECT_EQ(registry.Expose(),
            "# TYPE c counter\n"
            "c 1\n"
            "c{shard=\"0\"} 4\n"
            "c{shard=\"1\"} 2\n"
            "# TYPE g gauge\n"
            "g{shard=\"1\"} -3\n");
}

TEST(MetricsRegistryTest, HistogramLeJoinsTheSeriesLabels) {
  MetricsRegistry registry;
  registry.GetHistogram("h", {10}, "worker=\"0\"")->Observe(4);
  registry.GetHistogram("h", {10}, "worker=\"1\"")->Observe(40);
  EXPECT_EQ(registry.FindHistogram("h"), nullptr);
  ASSERT_NE(registry.FindHistogram("h", "worker=\"1\""), nullptr);
  EXPECT_EQ(registry.Expose(),
            "# TYPE h histogram\n"
            "h_bucket{worker=\"0\",le=\"10\"} 1\n"
            "h_bucket{worker=\"0\",le=\"+Inf\"} 1\n"
            "h_sum{worker=\"0\"} 4\n"
            "h_count{worker=\"0\"} 1\n"
            "h_bucket{worker=\"1\",le=\"10\"} 0\n"
            "h_bucket{worker=\"1\",le=\"+Inf\"} 1\n"
            "h_sum{worker=\"1\"} 40\n"
            "h_count{worker=\"1\"} 1\n");
}

TEST(MetricsRegistryTest, EmptyLabelSetsRenderAsPlainNames) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Inc(3);
  registry.GetGauge("g")->Set(-1);
  Histogram* h = registry.GetHistogram("h", {10});
  h->Observe(4);
  h->Observe(40);
  EXPECT_EQ(registry.Expose(),
            "# TYPE a counter\n"
            "a 3\n"
            "# TYPE g gauge\n"
            "g -1\n"
            "# TYPE h histogram\n"
            "h_bucket{le=\"10\"} 1\n"
            "h_bucket{le=\"+Inf\"} 2\n"
            "h_sum 44\n"
            "h_count 2\n");
}

TEST(MetricsRegistryTest, ToJsonWithLabelledKeysIsValidJson) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Inc(1);
  registry.GetCounter("c", "shard=\"1\"")->Inc(3);
  registry.GetGauge("g", "shard=\"0\"")->Set(-2);
  registry.GetHistogram("h", {10}, "worker=\"0\"")->Observe(4);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"c\":1"), std::string::npos);
  EXPECT_NE(json.find("\"c{shard=\\\"1\\\"}\":3"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"h{worker=\\\"0\\\"}\":{\"count\":1"),
            std::string::npos)
      << json;
}

TEST(DefaultLatencyBoundsTest, AscendingAndNonEmpty) {
  const std::vector<uint64_t>& bounds = DefaultLatencyBoundsNs();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ScopedLatencyTimerTest, ObservesOnceAndNullIsSafe) {
  Histogram h(DefaultLatencyBoundsNs());
  {
    ScopedLatencyTimer timer(&h);
  }
  EXPECT_EQ(h.Count(), 1u);
  {
    ScopedLatencyTimer timer(nullptr);  // must not crash
  }
}

}  // namespace
}  // namespace ariesrh::obs
