// Unit tests of pmc_bench's statistics, verdicts and report format.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "report.h"
#include "stats.h"
#include "util/check.h"

namespace pmc::pmcbench {
namespace {

std::vector<double> one_to(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, NearestRankP90) {
  // p90 is the slowest of 6 or 9 cells (the fig8 workloads), the second
  // slowest of 12, and rank 33 of 36 (litmus_check).
  EXPECT_EQ(percentile(one_to(6), 90), 6.0);
  EXPECT_EQ(percentile(one_to(9), 90), 9.0);
  EXPECT_EQ(percentile(one_to(12), 90), 11.0);
  EXPECT_EQ(percentile(one_to(36), 90), 33.0);
  // n = 11: the 10th smallest, one sample above it.
  EXPECT_EQ(percentile(one_to(11), 90), 10.0);
  EXPECT_EQ(samples_above(11, 90), 1u);
  // n = 30: rank 27, three above.
  EXPECT_EQ(percentile(one_to(30), 90), 27.0);
  EXPECT_EQ(samples_above(30, 90), 3u);
  // n = 240: rank 216, 24 above.
  EXPECT_EQ(percentile(one_to(240), 90), 216.0);
  EXPECT_EQ(samples_above(240, 90), 24u);
}

TEST(TailRule, FewSamplesGiveTheMaximum) {
  // Below ten samples nothing lies above p90: the tail is the slowest one.
  for (size_t n = 1; n < 10; ++n) {
    EXPECT_EQ(percentile(one_to(n), 90), static_cast<double>(n)) << n;
    EXPECT_EQ(samples_above(n, 90), 0u) << n;
  }
  EXPECT_EQ(percentile({}, 90), 0.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Reference values: statistics.quantiles(v, n=4).
  const struct {
    std::vector<double> v;
    double q1, q2, q3;
  } cases[] = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55.0, 82.5},
      {{2.5, 0.5, 9.0, 4.0, 7.25, 1.0, 3.0}, 1.0, 3.0, 7.25},
  };
  for (const auto& c : cases) {
    const Quartiles q = quartiles(c.v);
    EXPECT_DOUBLE_EQ(q.q1, c.q1);
    EXPECT_DOUBLE_EQ(q.q2, c.q2);
    EXPECT_DOUBLE_EQ(q.q3, c.q3);
  }
  const Quartiles one = quartiles({7});
  EXPECT_EQ(one.q1, 7.0);
  EXPECT_EQ(one.q3, 7.0);
  EXPECT_EQ(one.spread(), 0.0);
  EXPECT_DOUBLE_EQ(quartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}).spread(),
                   55.0 / 55.0);
}

Quartiles q(double q1, double q2, double q3) {
  Quartiles r;
  r.q1 = q1;
  r.q2 = q2;
  r.q3 = q3;
  return r;
}

TEST(Verdict, AllFour) {
  const Quartiles parent = q(0.99, 1.0, 1.01);
  // Lower is better (times): a 20 % shift passes a 10 % bound.
  EXPECT_EQ(verdict(parent, q(0.79, 0.8, 0.81), 0.1, true), Verdict::kBetter);
  EXPECT_EQ(verdict(parent, q(1.19, 1.2, 1.21), 0.1, true), Verdict::kWorse);
  EXPECT_EQ(verdict(parent, q(1.04, 1.05, 1.06), 0.1, true),
            Verdict::kUnchanged);
  // Higher is better flips the direction.
  EXPECT_EQ(verdict(parent, q(1.19, 1.2, 1.21), 0.1, false), Verdict::kBetter);
  EXPECT_EQ(verdict(parent, q(0.79, 0.8, 0.81), 0.1, false), Verdict::kWorse);
  // A side whose spread exceeds the bound cannot call a small shift.
  EXPECT_EQ(verdict(q(0.8, 1.0, 1.2), q(1.04, 1.05, 1.06), 0.1, true),
            Verdict::kUnresolved);
  EXPECT_EQ(verdict(parent, q(0.9, 1.05, 1.2), 0.1, true),
            Verdict::kUnresolved);
  // ... but a shift past the bound for the worse is reported even then.
  EXPECT_EQ(verdict(q(0.8, 1.0, 1.2), q(1.3, 1.5, 1.7), 0.1, true),
            Verdict::kWorse);
  // A large gain on noisy sides is not claimed while the ranges overlap,
  // in either direction ...
  EXPECT_EQ(verdict(q(0.8, 1.0, 1.2), q(0.55, 0.7, 0.85), 0.1, true),
            Verdict::kUnresolved);
  EXPECT_EQ(verdict(q(0.8, 1.0, 1.2), q(1.15, 1.3, 1.45), 0.1, false),
            Verdict::kUnresolved);
  // ... and is once b's range lies wholly on the better side of a's.
  EXPECT_EQ(verdict(q(0.8, 1.0, 1.2), q(0.5, 0.6, 0.75), 0.1, true),
            Verdict::kBetter);
  EXPECT_EQ(verdict(q(0.8, 1.0, 1.2), q(1.25, 1.4, 1.55), 0.1, false),
            Verdict::kBetter);
  EXPECT_STREQ(to_string(Verdict::kUnresolved), "unresolved");
}

TEST(FlatReport, RoundTripsThroughJsonRead) {
  const FlatReport report = {
      {"seed", 7},
      {"host_cpus", 4},
      {"fig8_mesh256.round_s", 6.0123456789012345},
      {"fig8_mesh256.sim.makespan_cycles", 48671421},
      {"litmus_check.explore.schedules", 9007199254740992.0},  // 2^53
      {"fig8_validated.setup_s", 1.25e-5},
      {"weird \"key\" \\ with escapes", -0.5},
  };
  const std::map<std::string, double> back =
      read_flat_json(flat_json(report), "test");
  ASSERT_EQ(back.size(), report.size());
  for (const auto& [key, value] : report) {
    ASSERT_EQ(back.count(key), 1u) << key;
    EXPECT_EQ(back.at(key), value) << key;  // every digit survives
  }
}

TEST(FlatReport, NonFiniteBecomesZero) {
  const FlatReport report = {
      {"nan", std::numeric_limits<double>::quiet_NaN()},
      {"inf", std::numeric_limits<double>::infinity()}};
  const auto back = read_flat_json(flat_json(report), "test");
  EXPECT_EQ(back.at("nan"), 0.0);
  EXPECT_EQ(back.at("inf"), 0.0);
}

TEST(FlatReport, RejectsNonNumbersAndGarbage) {
  EXPECT_THROW(read_flat_json("{\"a\": \"x\"}", "t"), util::CheckFailure);
  EXPECT_THROW(read_flat_json("{\"a\": 1} trailing", "t"), util::CheckFailure);
  EXPECT_THROW(read_flat_json("[1, 2]", "t"), util::CheckFailure);
}

TEST(FlatReport, DeterministicKeys) {
  EXPECT_TRUE(is_deterministic_key("fig8_validated.sim.makespan_cycles"));
  EXPECT_TRUE(is_deterministic_key("litmus_check.explore.schedules"));
  EXPECT_FALSE(is_deterministic_key("litmus_check.round_s"));
  EXPECT_FALSE(is_deterministic_key("explore.schedules_per_s"));
}

}  // namespace
}  // namespace pmc::pmcbench
