// MetricsRegistry counters/gauges/histograms, exact cross-worker merging,
// and the deterministic key-ordered JSON export (DESIGN.md §11).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "fuzz/json_read.h"

namespace pmc::obs {
namespace {

TEST(Histogram, BucketsArePowersOfTwo) {
  Histogram h;
  h.observe(0);    // bucket 0: v < 1
  h.observe(0.5);  // bucket 0
  h.observe(1);    // bucket 1: [1, 2)
  h.observe(2);    // bucket 2: [2, 4)
  h.observe(3);    // bucket 2
  h.observe(4);    // bucket 3: [4, 8)
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 10.5);
  EXPECT_DOUBLE_EQ(h.min, 0);
  EXPECT_DOUBLE_EQ(h.max, 4);
  EXPECT_DOUBLE_EQ(h.mean(), 10.5 / 6);
}

TEST(Histogram, HugeValuesClampToTheLastBucket) {
  Histogram h;
  h.observe(1e30);
  EXPECT_EQ(h.buckets[Histogram::kBuckets - 1], 1u);
}

TEST(Histogram, QuantileReadsBucketUpperBoundsClamped) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0);  // empty: no observations
  for (int i = 0; i < 99; ++i) h.observe(1);
  h.observe(1000);
  // p50 lands in the [1, 2) bucket and reads its upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 2);
  // The tail reaches the outlier's bucket [512, 1024), whose bound 1024
  // clamps to the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 1000);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000);
}

TEST(Histogram, QuantileExactForConstantSeries) {
  // The common contention case: every wait is zero. All mass in bucket 0,
  // whose bound 1 clamps to [0, 0] — the quantile is exactly 0.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0);
}

TEST(Histogram, MergeIsBucketwiseAddition) {
  Histogram a, b;
  a.observe(1);
  a.observe(8);
  b.observe(0);
  b.observe(100);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_DOUBLE_EQ(a.min, 0);
  EXPECT_DOUBLE_EQ(a.max, 100);
  EXPECT_EQ(a.buckets[0], 1u);
  EXPECT_EQ(a.buckets[1], 1u);
  EXPECT_EQ(a.buckets[4], 1u);  // 8 in [8, 16)
  EXPECT_EQ(a.buckets[7], 1u);  // 100 in [64, 128)

  // Merging into an empty histogram copies min/max instead of keeping the
  // zero-initialized defaults.
  Histogram empty;
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.min, 0);
  EXPECT_DOUBLE_EQ(empty.max, 100);
  EXPECT_EQ(empty.count, 4u);
}

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.counter("missing"), 0u);
  m.inc("explored");
  m.inc("explored", 9);
  EXPECT_EQ(m.counter("explored"), 10u);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry, GaugesAreLastWriteWins) {
  MetricsRegistry m;
  EXPECT_DOUBLE_EQ(m.gauge("missing"), 0);
  m.set_gauge("rate", 1.5);
  m.set_gauge("rate", 2.5);
  EXPECT_DOUBLE_EQ(m.gauge("rate"), 2.5);
}

TEST(MetricsRegistry, HistogramsObserveByName) {
  MetricsRegistry m;
  EXPECT_EQ(m.histogram("missing"), nullptr);
  m.observe("depth", 3);
  m.observe("depth", 5);
  const Histogram* h = m.histogram("depth");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 8);
}

TEST(MetricsRegistry, MergeAddsCountersOverwritesGaugesCombinesHistograms) {
  MetricsRegistry a, b;
  a.inc("explored", 5);
  a.set_gauge("rate", 1.0);
  a.observe("depth", 2);
  b.inc("explored", 7);
  b.inc("pruned", 3);
  b.set_gauge("rate", 9.0);
  b.observe("depth", 4);
  a.merge(b);
  EXPECT_EQ(a.counter("explored"), 12u);
  EXPECT_EQ(a.counter("pruned"), 3u);
  EXPECT_DOUBLE_EQ(a.gauge("rate"), 9.0);
  EXPECT_EQ(a.histogram("depth")->count, 2u);
}

TEST(MetricsRegistry, JsonExportIsValidKeyOrderedAndDeterministic) {
  MetricsRegistry m;
  m.inc("zeta", 1);
  m.inc("alpha", 2);
  m.set_gauge("speed", 1.25);
  m.observe("lat", 3);
  const std::string json = m.to_json();
  EXPECT_NO_THROW(fuzz::json_parse(json, "metrics")) << json;
  // std::map storage ⇒ key-sorted members, independent of insertion order.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"speed\":1.25"), std::string::npos);

  MetricsRegistry same;
  same.set_gauge("speed", 1.25);
  same.observe("lat", 3);
  same.inc("alpha", 2);
  same.inc("zeta", 1);
  EXPECT_EQ(same.to_json(), json);
}

TEST(MetricsRegistry, EmptyRegistryExportsEmptySections) {
  const std::string json = MetricsRegistry().to_json();
  EXPECT_NO_THROW(fuzz::json_parse(json, "metrics")) << json;
  EXPECT_EQ(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistry, JsonEscapesKeysAndElidesTrailingEmptyBuckets) {
  MetricsRegistry m;
  m.inc("weird \"key\"\n", 1);
  m.observe("h", 2);  // bucket 2 is the last non-empty one
  const std::string json = m.to_json();
  EXPECT_NO_THROW(fuzz::json_parse(json, "metrics")) << json;
  EXPECT_NE(json.find("\\\"key\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,0,1]"), std::string::npos);
}

}  // namespace
}  // namespace pmc::obs
