// The CheckTarget/CheckSession front door (DESIGN.md §9): apps-layer
// targets model-checked on every back-end, byte-identical reports across
// job counts and against stateless replay, the target-driven engine choice,
// seeded-fault discovery with minimization, and the generic
// target-shrinking contract.
#include "explore/check.h"

#include <gtest/gtest.h>

#include "explore/litmus_driver.h"
#include "explore/program_gen.h"
#include "model/litmus_library.h"
#include "../support/replay_reference.h"

namespace pmc::explore {
namespace {

using test_support::ReplayReference;

SessionOptions app_opts(DporMode dpor = DporMode::kSleepSet, int jobs = 1) {
  SessionOptions opts;
  opts.explore.preemption_bound = 1;
  opts.explore.horizon = 14;
  opts.explore.dpor = dpor;
  opts.jobs = jobs;
  return opts;
}

TEST(AppKind, ParsesAndPrints) {
  EXPECT_STREQ(to_string(AppKind::kMFifo), "mfifo");
  EXPECT_STREQ(to_string(AppKind::kTaskCounter), "taskcounter");
  EXPECT_EQ(app_kind_from_string("mfifo"), AppKind::kMFifo);
  EXPECT_EQ(app_kind_from_string("taskcounter"), AppKind::kTaskCounter);
  EXPECT_FALSE(app_kind_from_string("fifo").has_value());
  EXPECT_EQ(all_app_kinds().size(), 2u);
}

TEST(CheckTargetNames, AreStableAndBackendQualified) {
  EXPECT_EQ(MFifoTarget(rt::Target::kSWCC).name(), "mfifo(d2,r2,i2)@swcc");
  EXPECT_EQ(TaskCounterTarget(rt::Target::kDSM).name(),
            "taskcounter(c2,t3,k1)@dsm");
  EXPECT_EQ(LitmusTarget(model::litmus::fig4_exclusive(), rt::Target::kSPM)
                .name(),
            "fig4_exclusive@spm");
  const GenProgram prog = generate_program(shape_for_seed(3));
  EXPECT_EQ(GenProgramTarget(prog, rt::Target::kNoCC).name(),
            "fuzz-seed-3@nocc");
}

/// The target's own verdict on one schedule: spec.judge alone, without the
/// Definition 12 rule judge_run applies on top.
RunOutcome own_verdict(const CheckTarget& target, const DecisionString& ds,
                       uint64_t horizon) {
  const StatefulSpec spec = target.make_spec();
  ReplayPolicy policy(ds, horizon, /*record_footprints=*/false);
  rt::ProgramOptions opts = spec.opts;
  opts.schedule_policy = &policy;
  rt::Program prog(opts);
  spec.setup(prog);
  prog.run(spec.body);
  RunOutcome out;
  spec.judge(prog, out);
  return out;
}

TEST(CheckSession, Definition12VerdictBeatsTheTargetsOwnOracle) {
  // With the seeded SWCC fault, a reader pops a stale slot: the validator
  // rejects the read and the broadcast oracle rejects the element. The
  // validator's verdict must win.
  const MFifoTarget target(rt::Target::kSWCC, MFifoShape{},
                           seeded_fault(rt::Target::kSWCC));
  const SessionOptions opts = app_opts(DporMode::kSleepSet, 1);
  const CheckReport rep = CheckSession(opts).check(target);
  ASSERT_FALSE(rep.ok);
  const RunOutcome own =
      own_verdict(target, rep.first_failing, opts.explore.horizon);
  EXPECT_FALSE(own.ok);
  EXPECT_FALSE(own.message.starts_with("Definition 12 violation: "))
      << own.message;
  EXPECT_TRUE(
      rep.first_failing_message.starts_with("Definition 12 violation: "))
      << rep.first_failing_message;
  EXPECT_TRUE(rep.minimized_message.starts_with("Definition 12 violation: "))
      << rep.minimized_message;
}

TEST(CheckSession, EngineFollowsTheTarget) {
  // The session's only engine choice is stateful_capable(): a target with
  // a StatefulSpec forks schedules from snapshots, everything else — the
  // ReplayReference decorator included — re-executes from scratch.
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  const FnTarget fn("always-ok", [](ReplayPolicy&) { return RunOutcome{}; });
  const CheckSession session(app_opts(DporMode::kOff));
  EXPECT_GT(session.check(target).telemetry.snapshots_taken, 0u);
  EXPECT_EQ(session.check(ReplayReference(target)).telemetry.snapshots_taken,
            0u);
  EXPECT_EQ(session.check(fn).telemetry.snapshots_taken, 0u);
}

TEST(FnTarget, WrapsAdHocRunners) {
  const FnTarget target("always-ok", [](ReplayPolicy&) {
    RunOutcome out;
    out.trace_hash = 7;
    return out;
  });
  EXPECT_EQ(target.name(), "always-ok");
  EXPECT_EQ(target.shrink_count(), 0u);
  const auto rep = CheckSession(ExploreConfig{}).check(target);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.target, "always-ok");
  EXPECT_EQ(rep.distinct_traces, 1u);
}

// -- Apps on every back-end under the reduced search (ISSUE 5 satellite) -----

class AppSweep : public ::testing::TestWithParam<rt::Target> {};

TEST_P(AppSweep, MFifoBroadcastHoldsOnEveryExploredSchedule) {
  const MFifoTarget target(GetParam());  // depth 2, 2 readers, 2 items
  const CheckReport rep = CheckSession(app_opts()).check(target);
  EXPECT_TRUE(rep.ok) << rep.to_text();
  EXPECT_EQ(rep.failing, 0u)
      << rt::to_string(GetParam()) << ": schedule \""
      << to_string(rep.first_failing) << "\": " << rep.first_failing_message;
  EXPECT_GE(rep.explored, 1u);
  // The reduced search accounts for every bypassed alternative.
  EXPECT_GT(rep.dpor_pruned, 0u);
}

TEST_P(AppSweep, TaskCounterPartitionHoldsOnEveryExploredSchedule) {
  const TaskCounterTarget target(GetParam());
  const CheckReport rep = CheckSession(app_opts()).check(target);
  EXPECT_TRUE(rep.ok) << rep.to_text();
  EXPECT_GE(rep.explored, 1u);
  EXPECT_GT(rep.dpor_pruned, 0u);
  // The chunk counter is racy-by-design (which core grabs which chunk), so
  // exploration must reach more than one partition-assignment class.
  EXPECT_GE(rep.distinct_traces, 2u);
}

INSTANTIATE_TEST_SUITE_P(SimTargets, AppSweep,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

// -- Report determinism across engines and job counts (ISSUE 5 satellite) ----

TEST(AppCheck, ReportsAreByteIdenticalAcrossEnginesAndJobs) {
  // A failing target exercises the whole pipeline (canonicalization,
  // minimization, replay): the seeded swcc fault fails fast via the
  // Definition 12 oracle on both apps.
  for (const AppKind kind : all_app_kinds()) {
    const auto target =
        make_app_target(kind, rt::Target::kSWCC, all_seeded_faults());
    const CheckReport ref =
        CheckSession(app_opts(DporMode::kSleepSet, 1)).check(*target);
    ASSERT_GT(ref.failing, 0u) << to_string(kind);
    const ReplayReference replay(*target);
    for (int jobs : {1, 2, 8}) {
      const CheckSession session(app_opts(DporMode::kSleepSet, jobs));
      EXPECT_EQ(session.check(*target).to_text(), ref.to_text())
          << to_string(kind) << " jobs=" << jobs;
      // jobs > 1 here runs the shared-runner path FnTargets take.
      EXPECT_EQ(session.check(replay).to_text(), ref.to_text())
          << to_string(kind) << " replay jobs=" << jobs;
    }
  }
}

TEST(AppCheck, CleanReportsAreByteIdenticalAcrossJobs) {
  const MFifoTarget target(rt::Target::kDSM);
  const CheckReport ref =
      CheckSession(app_opts(DporMode::kSleepSet, 1)).check(target);
  EXPECT_TRUE(ref.ok);
  for (int jobs : {2, 8}) {
    const CheckReport rep =
        CheckSession(app_opts(DporMode::kSleepSet, jobs)).check(target);
    EXPECT_EQ(rep.to_text(), ref.to_text()) << "jobs=" << jobs;
  }
}

// -- Seeded faults are caught and minimized (ISSUE 5 satellite) --------------

TEST(AppCheck, SeededFaultIsCaughtAndMinimized) {
  // all_seeded_faults() injects every back-end's protocol fault at once;
  // each back-end reads only its own flag. The session must catch the
  // resulting oracle violations and hand back a minimized, replayable
  // schedule (the minimum can be the default schedule — minimization then
  // proves no single override is needed to reproduce).
  struct Combo {
    AppKind kind;
    rt::Target target;
  };
  const Combo combos[] = {
      {AppKind::kMFifo, rt::Target::kSWCC},
      {AppKind::kTaskCounter, rt::Target::kSWCC},
      {AppKind::kTaskCounter, rt::Target::kDSM},
  };
  const CheckSession session(app_opts());
  for (const Combo& c : combos) {
    const auto target = make_app_target(c.kind, c.target, all_seeded_faults());
    const CheckReport rep = session.check(*target);
    ASSERT_GT(rep.failing, 0u) << target->name();
    EXPECT_FALSE(rep.ok);
    EXPECT_FALSE(rep.minimized_message.empty()) << target->name();
    EXPECT_LE(rep.minimized_schedule.size(), rep.first_failing.size());
    // The minimized schedule replays to the reported violation.
    bool applied = false;
    const RunOutcome again =
        session.replay(*target, rep.minimized_schedule, &applied);
    EXPECT_TRUE(applied) << target->name();
    EXPECT_FALSE(again.ok) << target->name();
    EXPECT_EQ(again.message, rep.minimized_message) << target->name();
    // Apps targets are not shrinkable; the repro schedule is the minimum.
    EXPECT_EQ(rep.minimized_target, nullptr);
    EXPECT_EQ(to_string(rep.repro_schedule), to_string(rep.minimized_schedule));
  }
}

TEST(AppCheck, CleanBackendsStayCleanUnderSeededFaults) {
  // no-CC has no coherence action to omit: with every fault injected it
  // still reads only its own (absent) flag and must stay green.
  const CheckSession session(app_opts());
  for (const AppKind kind : all_app_kinds()) {
    const auto target =
        make_app_target(kind, rt::Target::kNoCC, all_seeded_faults());
    const CheckReport rep = session.check(*target);
    EXPECT_TRUE(rep.ok) << rep.to_text();
  }
}

// -- The generic shrinking contract ------------------------------------------

TEST(GenProgramTargetShrink, FlattensThreadOpPairsInOrder) {
  const GenProgram prog = generate_program(shape_for_seed(1));
  const GenProgramTarget target(prog, rt::Target::kNoCC);
  ASSERT_EQ(target.shrink_count(), prog.ops());
  // Candidate 0 drops thread 0's first op (or, for a barrier, that barrier
  // from every thread).
  const auto cand = target.shrink(0);
  ASSERT_NE(cand, nullptr);
  const auto* gen = dynamic_cast<const GenProgramTarget*>(cand.get());
  ASSERT_NE(gen, nullptr);
  EXPECT_LT(gen->program().ops(), prog.ops());
  // Out-of-range candidates are structurally impossible, not errors.
  EXPECT_EQ(target.shrink(target.shrink_count()), nullptr);
}

TEST(CheckSessionShrink, MinimizedTargetIsOneMinimal) {
  // Through the session, a failing shrinkable target shrinks until dropping
  // any single op hides the bug; the result is carried in the report.
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 10;
  const GenProgram prog = generate_program(shape_for_seed(1));
  const GenProgramTarget target(
      prog, rt::Target::kSWCC,
      rt::FaultInjection::one("swcc_skip_exit_writeback"));
  const CheckSession session(cfg, /*jobs=*/2);
  const CheckReport rep = session.check(target);
  ASSERT_GT(rep.failing, 0u);
  ASSERT_NE(rep.minimized_target, nullptr);
  const auto* shrunk =
      dynamic_cast<const GenProgramTarget*>(rep.minimized_target.get());
  ASSERT_NE(shrunk, nullptr);
  EXPECT_LT(shrunk->program().ops(), prog.ops());
  EXPECT_FALSE(rep.minimized_listing.empty());
  // 1-minimality: every further single-op drop makes the bug vanish.
  for (size_t i = 0; i < shrunk->shrink_count(); ++i) {
    const auto cand = shrunk->shrink(i);
    if (cand == nullptr) continue;
    EXPECT_EQ(session.explore(*cand).failing, 0u) << "drop " << i;
  }
  // And the minimized schedule fails on the minimized target.
  bool applied = false;
  EXPECT_FALSE(session.replay(*shrunk, rep.minimized_schedule, &applied).ok);
  EXPECT_TRUE(applied);
}

}  // namespace
}  // namespace pmc::explore
