// hb_trace_hash stability: the farm's entire coverage signal is the set of
// hb-class hashes an exploration reports, so that set must be a pure
// function of (target, bounds) — identical between stateless replay and the
// snapshot engine and across job counts, on every back-end. A drift here
// would silently corrupt every persisted corpus. The one shared trace set
// also closes the discovery curve and lists every failing schedule, so the
// sweep checks those against the totals at every job count.
#include <algorithm>
#include <atomic>
#include <chrono>
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

// The curve's last point is sampled when `explored` reaches a power of two,
// but a worker that took a smaller count can still be on its way to the
// trace set's lock and insert a new class after that sample. The closing
// must set the last point from the final set, not trust the sample. The
// target has four schedules, the default one and three children that each
// branch at step 0; the children wait for one another on a spin barrier,
// so three workers finish at the same instant and race from their
// `explored` increments to the lock. Every schedule has its own class.
TEST(HbCurve, LastPointIsTheFinalClassCountWhenInsertsRace) {
  constexpr int kChildren = 3;
  for (int round = 0; round < 300; ++round) {
    std::atomic<int> arrived{0};
    const FnTarget target("late-insert", [&arrived](ReplayPolicy& p) {
      std::vector<sim::ScheduleCandidate> cands;
      for (int c = 0; c <= kChildren; ++c) cands.push_back({c, 0});
      sim::YieldPoint yp;
      yp.observable = true;
      const int choice = p.pick(yp, cands);
      if (choice != 0) {
        arrived.fetch_add(1);
        // Bounded, in case fewer workers than children ever run at once.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (arrived.load() < kChildren &&
               std::chrono::steady_clock::now() < give_up) {
        }
      }
      RunOutcome out;
      out.trace_hash = 1 + static_cast<uint64_t>(choice);
      return out;
    });
    SessionOptions opts;
    opts.explore.preemption_bound = 1;
    opts.jobs = kChildren;
    const ExploreReport rep = CheckSession(opts).explore(target);
    ASSERT_EQ(rep.explored, 4u);  // a power of two: the sampled point
    ASSERT_EQ(rep.distinct_traces, 4u);
    ASSERT_FALSE(rep.hb_curve.empty());
    ASSERT_EQ(rep.hb_curve.back(), rep.distinct_traces) << "round " << round;
  }
}

}  // namespace
}  // namespace pmc::explore
