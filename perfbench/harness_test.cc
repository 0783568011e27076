// Tests for the benchmark's own helpers: the Zipf sampler, the percentile
// and trimmed-mean rules, and self time computed from spans.
//
//   python3 perfbench/run.py --unit-tests

#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/random.h"

namespace perfbench {
namespace {

TEST(ZipfSamplerTest, ProbabilitiesFollowThePowerLaw) {
  const ZipfSampler zipf(1000, 0.99);
  double total = 0;
  for (size_t i = 0; i < zipf.size(); ++i) total += zipf.Probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
  // p(rank) is proportional to 1 / (rank + 1)^theta.
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(9), std::pow(10, 0.99),
              1e-6);
}

TEST(ZipfSamplerTest, SampleFrequenciesMatchProbabilities) {
  const ZipfSampler zipf(100, 0.99);
  ariesrh::Random rng(7);
  constexpr int kDraws = 400000;
  std::vector<int> counts(zipf.size());
  for (int i = 0; i < kDraws; ++i) {
    const size_t rank = zipf.Next(&rng);
    ASSERT_LT(rank, zipf.size());
    ++counts[rank];
  }
  for (size_t rank : {0, 1, 9, 99}) {
    const double expected = zipf.Probability(rank) * kDraws;
    // Five standard deviations of a binomial count.
    EXPECT_NEAR(counts[rank], expected, 5 * std::sqrt(expected) + 1)
        << "rank " << rank;
  }
}

TEST(ZipfSamplerTest, SameSeedSameSequence) {
  const ZipfSampler zipf(20000, 0.99);
  ariesrh::Random a(42), b(42), c(43);
  std::vector<size_t> xs, ys, zs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(zipf.Next(&a));
    ys.push_back(zipf.Next(&b));
    zs.push_back(zipf.Next(&c));
  }
  EXPECT_EQ(xs, ys);
  EXPECT_NE(xs, zs);
}

TEST(ZipfSamplerTest, SingleKey) {
  const ZipfSampler zipf(1, 0.99);
  ariesrh::Random rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Next(&rng), 0u);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(PercentileOfSorted(v, 50), 50);
  EXPECT_EQ(PercentileOfSorted(v, 99), 99);
  EXPECT_EQ(PercentileOfSorted(v, 100), 100);
  EXPECT_EQ(PercentileOfSorted(v, 1), 1);
  EXPECT_EQ(PercentileOfSorted(v, 0.5), 1);
}

TEST(PercentileTest, SmallAndUnsortedInputs) {
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({7}, 99), 7);
  // Ranks: ceil(0.5 * 4) = 2nd smallest; ceil(0.99 * 4) = 4th.
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 50), 2);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 99), 4);
  EXPECT_EQ(Median({5, 1, 3}), 3);
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(Percentile({1}, 0), std::invalid_argument);
}

TEST(TrimmedMeanTest, DropsTheExtremes) {
  EXPECT_EQ(TrimmedMean({5}), 5);
  EXPECT_EQ(TrimmedMean({4, 6}), 5);
  EXPECT_EQ(TrimmedMean({1000, 2, 4, 6, 0}), 4);
  // A bimodal sample: the median jumps with one sample, the mean does not.
  EXPECT_EQ(Median({1, 1, 1, 9, 9, 9, 9}), 9);
  EXPECT_EQ(Median({1, 1, 1, 1, 9, 9, 9}), 1);
  EXPECT_DOUBLE_EQ(TrimmedMean({1, 1, 1, 9, 9, 9, 9}), 29.0 / 5);
  EXPECT_DOUBLE_EQ(TrimmedMean({1, 1, 1, 1, 9, 9, 9}), 21.0 / 5);
  EXPECT_THROW(TrimmedMean({}), std::invalid_argument);
}

Span MakeSpan(const char* name, uint32_t parent, uint64_t start,
              uint64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, ChildrenAreSubtractedOnce) {
  const std::vector<Span> spans = {
      MakeSpan("client.txn", Span::kNoParent, 0, 100),
      MakeSpan("txn.begin", 0, 10, 20),
      MakeSpan("table.put", 0, 30, 60),
      MakeSpan("txn.commit", 0, 70, 95),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100u - 10 - 30 - 25);
  EXPECT_EQ(self[1], 10u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 25u);
}

TEST(SelfTimeTest, NestedOverlappingAndOverhangingChildren) {
  const std::vector<Span> spans = {
      MakeSpan("client.restart", Span::kNoParent, 100, 200),
      MakeSpan("recovery.open", 0, 90, 130),    // starts before its parent
      MakeSpan("recovery.await", 0, 120, 150),  // overlaps the previous child
      MakeSpan("reenact.open", 0, 190, 260),    // ends after its parent
      MakeSpan("table.get", 2, 125, 135),       // grandchild
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  // Covered: [100, 150) and [190, 200) -> 60 of 100.
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 40u);
  EXPECT_EQ(self[2], 20u);
  EXPECT_EQ(self[3], 70u);
  EXPECT_EQ(self[4], 10u);
}

TEST(SelfTimeTest, SpanLogRecordsParentsAndSummaryGroupsByLayer) {
  SpanLog log;
  log.BeginTrace(7);
  {
    ScopedSpan root(&log, "client.txn");
    { ScopedSpan child(&log, "txn.begin"); }
    { ScopedSpan child(&log, "table.put"); }
  }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, Span::kNoParent);
  EXPECT_EQ(log.spans()[1].parent, 0u);
  EXPECT_EQ(log.spans()[2].parent, 0u);
  for (const Span& s : log.spans()) {
    EXPECT_EQ(s.trace_id, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  SpanSummary summary;
  summary.Add(log.spans());
  EXPECT_EQ(summary.spans, 3u);
  EXPECT_EQ(summary.layer_self_ns.count("client"), 1u);
  EXPECT_EQ(summary.layer_self_ns.count("txn"), 1u);
  EXPECT_EQ(summary.layer_self_ns.count("table"), 1u);
  EXPECT_EQ(LayerOf("recovery.open"), "recovery");
}

TEST(SelfTimeTest, NullLogRecordsNothing) {
  ScopedSpan span(nullptr, "client.txn");  // the untraced run: a no-op
}

}  // namespace
}  // namespace perfbench
