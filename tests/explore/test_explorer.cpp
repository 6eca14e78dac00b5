// Session-driven enumeration, pruning accounting, back-end model checking,
// and seeded-bug discovery (at the default jobs = 1).
//
// The closed-form counting tests pin the enumeration exactly: for a 2-core
// litmus program every decision step below the horizon has exactly two
// runnable cores (one alternative), so the number of schedules with at most
// k preemptions in the first H steps is sum_{j<=k} C(H, j). The session's
// explored (pruning off) — or explored + pruned (k = 1) — must match it.
#include "explore/check.h"

#include <gtest/gtest.h>

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
  cfg.prune_delay = false;
  const auto rep = CheckSession(cfg).explore(target);
  // C(10,0) + C(10,1) + C(10,2) = 1 + 10 + 45.
  EXPECT_EQ(rep.explored, 56u);
  EXPECT_EQ(rep.pruned, 0u);
  EXPECT_FALSE(rep.truncated);
  EXPECT_EQ(rep.failing, 0u);
}

// A 2-core raw-machine program whose schedule prefix contains genuine
// pure-delay segments: back-to-back compute() calls yield decision points
// whose just-ended segment performed no memory-system effect. (Litmus
// programs have none in-horizon: every segment of a memory op — including
// the mid-op stall slices — now carries its footprint, closing the PR 2 gap
// where those slices were silently treated as preemptible pure delay.)
RunOutcome run_compute_heavy(ReplayPolicy& policy) {
  sim::MachineConfig mc = sim::MachineConfig::ml605(2);
  sim::Machine m(mc);
  m.set_schedule_policy(&policy);
  m.run([](sim::Core& core) {
    const sim::Addr a =
        sim::kSdramBase + 64 * static_cast<sim::Addr>(core.id());
    for (uint32_t i = 0; i < 4; ++i) {
      core.store_u32(a, i, sim::MemClass::kSharedData);
      core.compute(8);
      core.compute(8);  // the segment between the computes is pure delay
    }
  });
  RunOutcome out;
  out.trace_hash = m.state_hash();
  return out;
}

TEST(CheckSession, ClosedFormCountWithPruning) {
  const FnTarget target("compute-heavy", run_compute_heavy);
  ExploreConfig cfg;
  cfg.preemption_bound = 1;  // depth 1: pruned schedules have no children
  cfg.horizon = 10;
  cfg.prune_delay = true;
  const auto rep = CheckSession(cfg).explore(target);
  // Every enumerated schedule is either run or pruned: C(10,0) + C(10,1).
  EXPECT_EQ(rep.explored + rep.pruned, 11u);
  EXPECT_GT(rep.pruned, 0u) << "back-to-back computes must prune";
  EXPECT_EQ(rep.failing, 0u);
}

TEST(CheckSession, MemoryOpStallSegmentsAreNotPureDelay) {
  // Regression for the PR 2 gap: the mid-operation stall segment of an
  // uncached store contains the posted write, so preempting it is a real
  // reordering — it must not be delay-pruned. With pruning on and off the
  // litmus space is therefore the same size.
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 10;
  cfg.prune_delay = true;
  const auto pruned_on = CheckSession(cfg).explore(target);
  cfg.prune_delay = false;
  const auto pruned_off = CheckSession(cfg).explore(target);
  EXPECT_EQ(pruned_on.explored, pruned_off.explored);
  EXPECT_EQ(pruned_on.pruned, 0u);
}

TEST(CheckSession, ThreeCoreClosedFormCount) {
  // wrc_locked has 3 threads: two alternatives per step below the horizon.
  const LitmusTarget target(model::litmus::wrc_locked(), rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 8;
  cfg.prune_delay = false;
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
  cfg.prune_delay = false;
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
  cfg.prune_delay = false;
  const auto rep = CheckSession(cfg).explore(target);
  EXPECT_GT(rep.distinct_traces, 1u)
      << "preemptions should produce observably different interleavings";
}

INSTANTIATE_TEST_SUITE_P(SimTargets, BackendSweep,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

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

INSTANTIATE_TEST_SUITE_P(FaultableTargets, SeededBug,
                         ::testing::Values(rt::Target::kSWCC,
                                           rt::Target::kDSM,
                                           rt::Target::kSPM),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

TEST(SeededBugCoverage, NoCCHasNoSeedableFault) {
  EXPECT_FALSE(has_seeded_fault(rt::Target::kNoCC));
  EXPECT_TRUE(has_seeded_fault(rt::Target::kSWCC));
  EXPECT_TRUE(has_seeded_fault(rt::Target::kDSM));
  EXPECT_TRUE(has_seeded_fault(rt::Target::kSPM));
}

}  // namespace
}  // namespace pmc::explore
