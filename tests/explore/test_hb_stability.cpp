// hb_trace_hash stability: the farm's entire coverage signal is the set of
// hb-class hashes an exploration reports, so that set must be a pure
// function of (target, bounds) — identical between stateless replay and the
// snapshot engine and across job counts, on every back-end. A drift here
// would silently corrupt every persisted corpus. The one shared trace set
// also closes the discovery curve and lists every failing schedule, so the
// sweep checks those against the totals at every job count.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "runtime/program.h"
#include "../support/replay_reference.h"

namespace pmc::explore {
namespace {

SessionOptions base_options() {
  SessionOptions s;
  s.explore.preemption_bound = 1;
  s.explore.horizon = 10;
  s.explore.dpor = DporMode::kSleepSet;
  s.jobs = 1;
  return s;
}

class HbStability : public ::testing::TestWithParam<rt::Target> {};

TEST_P(HbStability, ClassSetIsEngineAndJobInvariant) {
  const rt::Target target = GetParam();
  // Every annotatable test, plus the seeded-bug target where the back-end
  // has a fault to seed, so the failing-schedule list is swept too.
  std::vector<std::pair<LitmusTarget, bool>> inputs;  // (target, seeded)
  for (const model::LitmusTest& test : annotatable_tests()) {
    inputs.emplace_back(LitmusTarget(test, target), false);
  }
  if (has_seeded_fault(target)) {
    inputs.emplace_back(seeded_bug_check(target), true);
  }
  for (const auto& [lt, seeded] : inputs) {
    const CheckReport ref = CheckSession(base_options())
                                .check(test_support::ReplayReference(lt));
    ASSERT_FALSE(ref.truncated) << lt.name();
    if (seeded) {
      ASSERT_GT(ref.failing, 0u) << lt.name();
    }
    EXPECT_FALSE(ref.trace_hashes.empty()) << lt.name();
    EXPECT_EQ(static_cast<uint64_t>(ref.trace_hashes.size()),
              ref.distinct_traces)
        << lt.name();
    EXPECT_TRUE(std::is_sorted(ref.trace_hashes.begin(),
                               ref.trace_hashes.end()))
        << lt.name();

    for (const int jobs : {1, 2, 8}) {
      SessionOptions opts = base_options();
      opts.jobs = jobs;
      const ExploreReport rep = CheckSession(opts).explore(lt);
      const std::string where = lt.name() + " jobs=" + std::to_string(jobs);
      EXPECT_EQ(rep.trace_hashes, ref.trace_hashes)
          << where << " drifted from replay jobs=1";
      EXPECT_EQ(static_cast<uint64_t>(rep.trace_hashes.size()),
                rep.distinct_traces)
          << where;
      ASSERT_FALSE(rep.hb_curve.empty()) << where;
      EXPECT_EQ(rep.hb_curve.back(), rep.distinct_traces) << where;
      EXPECT_EQ(static_cast<uint64_t>(rep.failing_schedules.size()),
                rep.failing)
          << where;
      EXPECT_EQ(rep.failing, ref.failing) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, HbStability, ::testing::ValuesIn(rt::sim_targets()),
    [](const ::testing::TestParamInfo<rt::Target>& info) {
      return std::string(rt::to_string(info.param));
    });

}  // namespace
}  // namespace pmc::explore
