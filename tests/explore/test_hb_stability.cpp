// hb_trace_hash: which event orders it tells apart, and its stability. The
// farm's entire coverage signal is the set of hb-class hashes an
// exploration reports, so that set must be a pure function of (target,
// bounds) — identical between stateless replay and the snapshot engine and
// across job counts, on every back-end. A drift here would silently corrupt
// every persisted corpus. The one shared trace set also closes the
// discovery curve and lists every failing schedule, so the sweep checks
// those against the totals at every job count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "model/trace.h"
#include "runtime/program.h"
#include "../support/replay_reference.h"

namespace pmc::explore {
namespace {

TEST(HbTraceHash, CommutingEventOrdersHashIdentically) {
  using E = model::TraceEvent;
  // Two procs touching different locations: the interleaving commutes, so
  // the happens-before quotient — and with it the hash — is the same.
  const std::vector<E> ab = {E::write(0, 0, 1), E::write(1, 1, 2),
                             E::read(0, 0, 1)};
  const std::vector<E> ba = {E::write(1, 1, 2), E::write(0, 0, 1),
                             E::read(0, 0, 1)};
  EXPECT_EQ(hb_trace_hash(ab), hb_trace_hash(ba));
  // Same-location same-value reads by different procs commute too.
  const std::vector<E> rr = {E::read(0, 0, 0), E::read(1, 0, 0)};
  const std::vector<E> rr2 = {E::read(1, 0, 0), E::read(0, 0, 0)};
  EXPECT_EQ(hb_trace_hash(rr), hb_trace_hash(rr2));
}

TEST(HbTraceHash, DependentEventOrdersHashDifferently) {
  using E = model::TraceEvent;
  // Write/write to one location: the conflict order is the behavior.
  const std::vector<E> ww = {E::write(0, 0, 1), E::write(1, 0, 2)};
  const std::vector<E> ww2 = {E::write(1, 0, 2), E::write(0, 0, 1)};
  EXPECT_NE(hb_trace_hash(ww), hb_trace_hash(ww2));
  // Read before vs after the write it races with.
  const std::vector<E> rw = {E::read(1, 0, 0), E::write(0, 0, 1)};
  const std::vector<E> wr = {E::write(0, 0, 1), E::read(1, 0, 0)};
  EXPECT_NE(hb_trace_hash(rw), hb_trace_hash(wr));
  // Acquire order on one location is a total chain.
  const std::vector<E> aa = {E::acquire(0, 0), E::release(0, 0),
                             E::acquire(1, 0), E::release(1, 0)};
  const std::vector<E> aa2 = {E::acquire(1, 0), E::release(1, 0),
                              E::acquire(0, 0), E::release(0, 0)};
  EXPECT_NE(hb_trace_hash(aa), hb_trace_hash(aa2));
}

TEST(HbTraceHash, PollIterationCountsCollapse) {
  using E = model::TraceEvent;
  // A poll loop spinning on an unchanged version re-issues identical stale
  // reads; their count is pure timing, not behavior.
  const std::vector<E> two = {E::read(1, 0, 0), E::read(1, 0, 0),
                              E::write(0, 0, 1), E::read(1, 0, 1)};
  const std::vector<E> five = {E::read(1, 0, 0), E::read(1, 0, 0),
                               E::read(1, 0, 0), E::read(1, 0, 0),
                               E::read(1, 0, 0), E::write(0, 0, 1),
                               E::read(1, 0, 1)};
  EXPECT_EQ(hb_trace_hash(two), hb_trace_hash(five));
  // But whether the poll ever observed the stale value is behavior.
  const std::vector<E> fresh = {E::write(0, 0, 1), E::read(1, 0, 1)};
  EXPECT_NE(hb_trace_hash(two), hb_trace_hash(fresh));
}

TEST(HbTraceHash, CollapsesTheLitmusSuiteToFewClasses) {
  // Behavior classes, not interleavings: the annotatable suite on every
  // back-end explores two orders of magnitude more schedules than it has
  // happens-before classes, and every schedule is model-valid.
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 24;
  const CheckSession session(cfg);
  uint64_t explored = 0;
  uint64_t classes = 0;
  for (const rt::Target t : rt::sim_targets()) {
    for (const model::LitmusTest& test : annotatable_tests()) {
      const ExploreReport rep = session.explore(LitmusTarget(test, t));
      EXPECT_EQ(rep.failing, 0u) << test.name << " on " << rt::to_string(t);
      explored += rep.explored;
      classes += rep.distinct_traces;
    }
  }
  ASSERT_GT(classes, 0u);
  EXPECT_GE(explored, 50 * classes)
      << "the quotient hash must collapse commuting interleavings";
}

SessionOptions base_options() {
  SessionOptions s;
  s.explore.preemption_bound = 1;
  s.explore.horizon = 10;
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
      const int choice = p.pick(sim::YieldPoint{}, cands);
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
