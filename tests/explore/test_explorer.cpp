// Session-driven enumeration, back-end model checking, and seeded-bug
// discovery (at the default jobs = 1).
//
// The closed-form counting tests pin the enumeration exactly: for a 2-core
// litmus program every decision step below the horizon has exactly two
// runnable cores (one alternative), so the number of schedules with at most
// k preemptions in the first H steps is sum_{j<=k} C(H, j). The explorer
// runs every bounded schedule, so the session's explored must match it.
#include "explore/check.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "explore/litmus_driver.h"
#include "model/litmus_library.h"
#include "sim/machine.h"

namespace pmc::explore {
namespace {

TEST(Annotatable, FiltersTheLitmusLibrary) {
  EXPECT_TRUE(annotatable(model::litmus::fig5_mp_annotated()));
  EXPECT_TRUE(annotatable(model::litmus::fig4_exclusive()));
  EXPECT_TRUE(annotatable(model::litmus::sb_locked()));
  EXPECT_TRUE(annotatable(model::litmus::wrc_locked()));
  // Naked accesses cannot run on the §V-A runtime.
  EXPECT_FALSE(annotatable(model::litmus::fig1_mp_plain()));
  EXPECT_FALSE(annotatable(model::litmus::sb_plain()));
  EXPECT_FALSE(annotatable(model::litmus::racy_write_write()));
  EXPECT_FALSE(annotatable(model::litmus::coherence_rr()));
  EXPECT_GE(annotatable_tests().size(), 6u);
}

// -- Closed-form enumeration (2 cores, 2 objects: fig5_mp_annotated) --------

TEST(CheckSession, ClosedFormCountWithoutPruning) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 10;
  const auto rep = CheckSession(cfg).explore(target);
  // C(10,0) + C(10,1) + C(10,2) = 1 + 10 + 45.
  EXPECT_EQ(rep.explored, 56u);
  EXPECT_FALSE(rep.truncated);
  EXPECT_EQ(rep.failing, 0u);
}

TEST(CheckSession, ThreeCoreClosedFormCount) {
  // wrc_locked has 3 threads: two alternatives per step below the horizon.
  const LitmusTarget target(model::litmus::wrc_locked(), rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 8;
  const auto rep = CheckSession(cfg).explore(target);
  EXPECT_EQ(rep.explored, 1u + 2u * 8u);
}

TEST(CheckSession, TruncatedRunReportsLexLeastAmongExplored) {
  // `max_schedules` cuts the space short, but the reported failing schedule
  // must still be the lexicographic minimum among what *was* explored — not
  // whatever the DFS happened to hit first (ISSUE 4 satellite).
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const auto full = CheckSession(cfg).explore(target);
  ASSERT_FALSE(full.truncated);
  ASSERT_GT(full.failing, 0u);
  // Truncate right after the temporally first failure: later (possibly
  // lex-smaller) failures are cut off, so the report must be the minimum of
  // the explored prefix, not of the full space.
  cfg.max_schedules = full.schedules_to_first_failure;
  const auto rep = CheckSession(cfg).explore(target);
  ASSERT_TRUE(rep.truncated);
  EXPECT_EQ(rep.explored, full.schedules_to_first_failure);
  ASSERT_GT(rep.failing, 0u);
  ASSERT_EQ(rep.failing_schedules.size(), rep.failing);
  EXPECT_EQ(to_string(rep.first_failing),
            to_string(rep.failing_schedules.front()));
  for (const auto& f : rep.failing_schedules) {
    EXPECT_FALSE(lex_less(f, rep.first_failing));
  }
}

TEST(CheckSession, MaxSchedulesTruncates) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 10;
  cfg.max_schedules = 7;
  const auto rep = CheckSession(cfg).explore(target);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(rep.explored, 7u);
}

TEST(CheckSession, ReplayReportsUnappliedOverrides) {
  // A stale decision string (step beyond the run, or wrong program) must
  // not masquerade as a verdict about the requested schedule.
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.horizon = 16;
  const CheckSession session(cfg);
  bool applied = false;
  const auto out = session.replay(target, {}, &applied);
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(applied);
  session.replay(target, {{99'999'999, 1}}, &applied);
  EXPECT_FALSE(applied);
}

// -- Model checking the back-ends across interleavings ----------------------

class BackendSweep : public ::testing::TestWithParam<rt::Target> {};

TEST_P(BackendSweep, EveryExploredScheduleIsModelValid) {
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 10;
  const CheckSession session(cfg);
  for (const auto& test : annotatable_tests()) {
    const LitmusTarget target(test, GetParam());
    const auto rep = session.explore(target);
    EXPECT_EQ(rep.failing, 0u)
        << test.name << " on " << rt::to_string(GetParam()) << ": schedule \""
        << to_string(rep.first_failing)
        << "\": " << rep.first_failing_message;
    EXPECT_GE(rep.explored, 1u);
  }
}

TEST_P(BackendSweep, ExplorationReachesDistinctTraces) {
  // fig4_exclusive races a reader and a writer for one lock: both orders
  // are reachable within these bounds and observably different (the reader
  // sees 0 or 42), so the happens-before quotient must count >= 2 classes.
  const LitmusTarget target(model::litmus::fig4_exclusive(), GetParam());
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 12;
  const auto rep = CheckSession(cfg).explore(target);
  EXPECT_GT(rep.distinct_traces, 1u)
      << "preemptions should produce observably different interleavings";
}

TEST_P(BackendSweep, ClosedFormCountAtThreePreemptions) {
  // Every bounded schedule runs on every back-end, whatever its segments do:
  // C(24,0) + C(24,1) + C(24,2) + C(24,3) = 1 + 24 + 276 + 2024.
  ExploreConfig cfg;
  cfg.preemption_bound = 3;
  cfg.horizon = 24;
  const CheckSession session(cfg);
  for (const auto& test :
       {model::litmus::fig5_mp_annotated(), model::litmus::sb_locked()}) {
    const auto rep = session.explore(LitmusTarget(test, GetParam()));
    EXPECT_EQ(rep.explored, 2325u) << test.name;
    EXPECT_FALSE(rep.truncated) << test.name;
    EXPECT_EQ(rep.failing, 0u) << test.name;
  }
}

INSTANTIATE_TEST_SUITE_P(SimTargets, BackendSweep,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

// A raw 2-core timing race: core 0 posts ten stores to disjoint addresses
// and then X=1; core 1 computes for 50k cycles and then stores X=2. The
// final value of X depends on *when* segments run, not only on their
// conflict order: every non-default dispatch shifts the frontier warp and
// with it all later posted-write arrivals. The program is deliberately
// outside the annotation discipline (naked racy stores).
RunOutcome run_timing_race(ReplayPolicy& policy) {
  sim::MachineConfig mc = sim::MachineConfig::ml605(2);
  mc.cache_shared = false;  // uncached: posted-write visibility is timed
  sim::Machine m(mc);
  m.set_schedule_policy(&policy);
  const sim::Addr x = sim::kSdramBase + 0x400;
  m.run([&](sim::Core& core) {
    if (core.id() == 0) {
      for (uint32_t i = 0; i < 10; ++i) {
        core.store_u32(sim::kSdramBase + 0x40 * (i + 1), i,
                       sim::MemClass::kSharedData);
      }
      core.store_u32(x, 1, sim::MemClass::kSharedData);
    } else {
      core.compute(50'000);
      core.store_u32(x, 2, sim::MemClass::kSharedData);
    }
  });
  uint32_t v = 0;
  m.peek(x, &v, 4);
  RunOutcome out;
  out.trace_hash = v;  // the behavior under test IS the final value of X
  return out;
}

TEST(CheckSession, ReachesBothFinalValuesOfANakedTimingRace) {
  // Reordering two disjoint stores shifts how far the frontier warp pushes
  // the bypassed core, which can flip the cycle-level arbitration of the
  // same-address race. Running every bounded schedule reaches both values
  // (DESIGN.md §8: this is one reason the explorer has no reduction).
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 40;
  const FnTarget target("timing-race", run_timing_race);
  EXPECT_EQ(CheckSession(cfg).explore(target).distinct_traces, 2u);
}

// -- Seeded-bug discovery and minimization ----------------------------------

class SeededBug : public ::testing::TestWithParam<rt::Target> {};

TEST_P(SeededBug, HiddenUnderDefaultScheduleFoundByExploration) {
  const LitmusTarget target = seeded_bug_check(GetParam());
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const CheckSession session(cfg);

  // The fault is schedule-dependent: the default min-time schedule gives the
  // reader the lock first and sees nothing wrong.
  EXPECT_TRUE(session.replay(target, {}).ok);

  const CheckReport rep = session.check(target);
  ASSERT_GT(rep.failing, 0u) << "session must find the seeded fault";
  EXPECT_FALSE(rep.ok);

  // The failing schedule minimizes and replays deterministically. A litmus
  // target is not shrinkable, so the minimized schedule is the repro one.
  ASSERT_FALSE(rep.minimized_schedule.empty());
  EXPECT_LE(rep.minimized_schedule.size(), rep.first_failing.size());
  EXPECT_EQ(to_string(rep.minimized_schedule), to_string(rep.repro_schedule));
  EXPECT_EQ(rep.minimized_target, nullptr);
  const auto again = session.replay(target, rep.minimized_schedule);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.message, rep.minimized_message);
}

std::vector<rt::Target> faultable_targets() {
  std::vector<rt::Target> out;
  for (const rt::Target t : rt::sim_targets()) {
    if (has_seeded_fault(t)) out.push_back(t);
  }
  return out;
}

std::string target_name(const ::testing::TestParamInfo<rt::Target>& info) {
  return rt::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(FaultableTargets, SeededBug,
                         ::testing::ValuesIn(faultable_targets()), target_name);

class SeededFault : public ::testing::TestWithParam<rt::Target> {};

TEST_P(SeededFault, EveryFailingScheduleMinimizesToAReplayableFault) {
  // Not just the canonical failure: each failing schedule of the space
  // minimizes to a string that applies in full and still fails, and the
  // minimized strings collapse to a handful of distinct repros.
  const LitmusTarget target = seeded_bug_check(GetParam());
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const CheckSession session(cfg);
  const ExploreReport rep = session.explore(target);
  ASSERT_GT(rep.failing, 0u) << "the seeded fault must be found";
  ASSERT_EQ(rep.failing_schedules.size(), rep.failing);
  std::set<std::string> minimized;
  for (const DecisionString& f : rep.failing_schedules) {
    const DecisionString minimal = session.minimize(target, f);
    ASSERT_FALSE(minimal.empty()) << to_string(f);
    EXPECT_LE(minimal.size(), f.size());
    bool applied = false;
    EXPECT_FALSE(session.replay(target, minimal, &applied).ok)
        << to_string(minimal);
    EXPECT_TRUE(applied) << to_string(minimal);
    minimized.insert(to_string(minimal));
  }
  EXPECT_LT(minimized.size(), rep.failing_schedules.size());
}

INSTANTIATE_TEST_SUITE_P(FaultableTargets, SeededFault,
                         ::testing::ValuesIn(faultable_targets()), target_name);

TEST(SeededBugCoverage, NoCCHasNoSeedableFault) {
  EXPECT_FALSE(has_seeded_fault(rt::Target::kNoCC));
  EXPECT_TRUE(has_seeded_fault(rt::Target::kSWCC));
  EXPECT_TRUE(has_seeded_fault(rt::Target::kDSM));
  EXPECT_TRUE(has_seeded_fault(rt::Target::kSPM));
}

}  // namespace
}  // namespace pmc::explore
