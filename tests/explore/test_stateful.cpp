// Stateful exploration (DESIGN.md §10). The snapshot engine's whole claim
// is observational equivalence: forking schedules from machine snapshots
// must produce byte-identical CheckReports to full stateless replay (the
// ReplayReference decorator), over every target family, DPOR mode, job
// count, and fault seed. These suites pin that claim (the differential
// grid), the snapshot/restore round-trip properties underneath it, the
// bounded-pool fallback, and the ReplayPolicy recording contract that keeps
// scheduler state outside the machine from tearing on restore.
#include "explore/stateful.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "explore/program_gen.h"
#include "model/litmus_library.h"
#include "sim/machine.h"
#include "sim/scheduler.h"
#include "util/check.h"
#include "../support/replay_reference.h"

namespace pmc::explore {
namespace {

using test_support::ReplayReference;

SessionOptions grid_opts(DporMode dpor = DporMode::kOff, int jobs = 1,
                         uint64_t horizon = 12, int preemptions = 2) {
  SessionOptions opts;
  opts.explore.preemption_bound = preemptions;
  opts.explore.horizon = horizon;
  opts.explore.dpor = dpor;
  opts.jobs = jobs;
  return opts;
}

std::string check_text(const CheckTarget& target, const SessionOptions& opts) {
  return CheckSession(opts).check(target).to_text();
}

/// The stateless-replay report of `target`: the byte-equality reference.
std::string replay_text(const CheckTarget& target,
                        const SessionOptions& opts) {
  return check_text(ReplayReference(target), opts);
}

// -- The differential grid: snapshot must match replay byte-for-byte ---------

class LitmusDifferential : public ::testing::TestWithParam<rt::Target> {};

TEST_P(LitmusDifferential, EveryAnnotatableTestMatchesReplay) {
  // The CLI's default litmus grid bounds (preemptions 2, horizon 16), with
  // the unreduced tree sharded over 1 and 4 workers: the report, explored
  // count included, must not depend on the job count.
  for (const auto& test : annotatable_tests()) {
    const LitmusTarget target(test, GetParam());
    const std::string ref =
        replay_text(target, grid_opts(DporMode::kOff, 1, 16));
    for (const int jobs : {1, 4}) {
      EXPECT_EQ(check_text(target, grid_opts(DporMode::kOff, jobs, 16)), ref)
          << target.name() << " jobs=" << jobs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SimTargets, LitmusDifferential,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

TEST(StatefulDifferential, DporModesAndJobCountsMatchReplay) {
  const LitmusTarget mp(model::litmus::fig5_mp_annotated(), rt::Target::kSWCC);
  const LitmusTarget ex(model::litmus::fig4_exclusive(), rt::Target::kDSM);
  for (const CheckTarget* target : {
           static_cast<const CheckTarget*>(&mp),
           static_cast<const CheckTarget*>(&ex),
       }) {
    for (const DporMode dpor :
         {DporMode::kOff, DporMode::kSleepSet}) {
      const std::string ref = replay_text(*target, grid_opts(dpor));
      for (const int jobs : {1, 2, 8}) {
        EXPECT_EQ(check_text(*target, grid_opts(dpor, jobs)), ref)
            << target->name() << " dpor=" << to_string(dpor)
            << " jobs=" << jobs;
      }
    }
  }
}

TEST(StatefulDifferential, AppTargetsMatchReplayOnEveryBackend) {
  // App bounds: kernels take more decisions per schedule than a litmus
  // test, so trade horizon for per-schedule depth (same as the CLI).
  for (const rt::Target t : rt::sim_targets()) {
    for (const AppKind kind : all_app_kinds()) {
      const auto target = make_app_target(kind, t);
      const SessionOptions opts = grid_opts(DporMode::kSleepSet, 1, 14, 1);
      EXPECT_EQ(check_text(*target, opts), replay_text(*target, opts))
          << target->name();
    }
  }
}

TEST(StatefulDifferential, FuzzProgramsMatchReplay) {
  for (const uint64_t seed : {1u, 2u, 5u}) {
    const GenProgram prog = generate_program(shape_for_seed(seed));
    for (const rt::Target t : {rt::Target::kNoCC, rt::Target::kSWCC}) {
      const GenProgramTarget target(prog, t);
      const SessionOptions opts = grid_opts(DporMode::kOff, 1, 10, 1);
      EXPECT_EQ(check_text(target, opts), replay_text(target, opts))
          << target.name();
    }
  }
}

TEST(StatefulDifferential, SeededFaultReportsMatchReplayIncludingMinimization) {
  // Failing targets exercise the rest of the pipeline — canonicalization,
  // minimization, replay confirmation — so byte-equality here covers the
  // minimized schedule/message set, not just the totals.
  const LitmusTarget litmus = seeded_bug_check(rt::Target::kSWCC);
  const std::string litmus_ref =
      replay_text(litmus, grid_opts(DporMode::kOff, 1, 16));
  ASSERT_NE(litmus_ref.find("failing"), std::string::npos);
  for (const int jobs : {1, 2}) {
    EXPECT_EQ(check_text(litmus, grid_opts(DporMode::kOff, jobs, 16)),
              litmus_ref)
        << "jobs=" << jobs;
  }

  for (const AppKind kind : all_app_kinds()) {
    const auto target =
        make_app_target(kind, rt::Target::kSWCC, all_seeded_faults());
    const CheckReport ref =
        CheckSession(grid_opts(DporMode::kSleepSet, 1, 14, 1))
            .check(ReplayReference(*target));
    ASSERT_GT(ref.failing, 0u) << target->name();
    for (const int jobs : {1, 2}) {
      EXPECT_EQ(
          check_text(*target, grid_opts(DporMode::kSleepSet, jobs, 14, 1)),
          ref.to_text())
          << target->name() << " jobs=" << jobs;
    }
  }
}

// -- Bounded pool: eviction pressure only costs time, never changes reports --

TEST(SnapshotPool, RootOnlyPoolStillMatchesReplay) {
  // A failing target, so the least failing schedule is compared too.
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  cfg.collect_trace_hashes = true;
  const ExploreReport ref = CheckSession(cfg).explore(ReplayReference(target));
  ASSERT_GT(ref.failing, 0u);
  for (const size_t pool : {size_t{0}, size_t{2}}) {
    StatefulOptions sopts;
    sopts.horizon = cfg.horizon;
    sopts.checkpoint_stride = 4;
    sopts.pool_capacity = pool;
    StatefulExecutor exec(target.make_spec(), sopts);
    const ExploreReport rep = Explorer(exec.runner()).explore(cfg);
    EXPECT_EQ(rep.explored, ref.explored) << "pool=" << pool;
    EXPECT_EQ(rep.failing, ref.failing) << "pool=" << pool;
    EXPECT_EQ(to_string(rep.first_failing), to_string(ref.first_failing))
        << "pool=" << pool;
    EXPECT_EQ(rep.trace_hashes, ref.trace_hashes) << "pool=" << pool;
  }
}

TEST(SnapshotPool, CapacityZeroFallsBackToRootRestores) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  StatefulOptions sopts;
  sopts.horizon = 12;
  sopts.checkpoint_stride = 4;
  sopts.pool_capacity = 0;
  StatefulExecutor exec(target.make_spec(), sopts);
  ExploreConfig cfg;
  cfg.horizon = 12;
  const ExploreReport rep = Explorer(exec.runner()).explore(cfg);
  EXPECT_EQ(rep.failing, 0u);
  // Every non-first schedule restarted from the pinned root: no mid-run
  // forks survived eviction, yet exploration still completed identically.
  EXPECT_EQ(exec.stats().pool_hits, 0u);
  EXPECT_EQ(exec.stats().pool_misses, rep.explored - 1);
  EXPECT_GE(exec.stats().snapshots_taken, 1u);

  const ExploreReport ref = Explorer(target.runner()).explore(cfg);
  EXPECT_EQ(rep.explored, ref.explored);
  EXPECT_EQ(rep.distinct_traces, ref.distinct_traces);
}

TEST(SnapshotPool, DefaultPoolForksMostSchedulesMidRun) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  StatefulExecutor exec(target.make_spec(), StatefulOptions{});
  ExploreConfig cfg;
  cfg.horizon = 24;
  const ExploreReport rep = Explorer(exec.runner()).explore(cfg);
  EXPECT_EQ(rep.failing, 0u);
  EXPECT_GT(exec.stats().pool_hits, exec.stats().pool_misses);
}

// -- Snapshot/restore round-trip properties ----------------------------------

// Captures one (machine snapshot, policy recording) pair at a fixed
// decision step — the minimal checkpoint hook, bypassing the pool.
struct CaptureHook final : sim::CheckpointHook {
  rt::Program* prog = nullptr;
  ReplayPolicy* policy = nullptr;
  uint64_t grab_step = 8;
  std::optional<rt::Program::Snapshot> snap;
  ReplayPolicy::Recording rec;

  bool wants_checkpoint(uint64_t step, int) override {
    return step == grab_step && !snap.has_value();
  }
  void on_checkpoint(uint64_t) override {
    rec = policy->export_recording();
    snap = prog->snapshot();
  }
};

// Builds the program for `spec`, runs it under a recording policy, and
// captures a mid-run checkpoint at `grab_step`.
struct RoundTrip {
  explicit RoundTrip(const StatefulSpec& spec, uint64_t grab_step = 8)
      : policy({}, /*horizon=*/24) {
    rt::ProgramOptions opts = spec.opts;
    opts.schedule_policy = &policy;
    prog = std::make_unique<rt::Program>(opts);
    hook.prog = prog.get();
    hook.policy = &policy;
    hook.grab_step = grab_step;
    prog->set_checkpoint_hook(&hook);
    spec.setup(*prog);
    prog->run(spec.body);
  }

  ReplayPolicy policy;
  std::unique_ptr<rt::Program> prog;
  CaptureHook hook;
};

TEST(SnapshotRoundTrip, RestoredContinuationIsBitIdentical) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  const StatefulSpec spec = target.make_spec();
  RoundTrip rt(spec);
  ASSERT_TRUE(rt.hook.snap.has_value())
      << "default schedule never reached decision step 8";

  const rt::Program::Snapshot final1 = rt.prog->snapshot();
  RunOutcome out1;
  spec.judge(*rt.prog, out1);

  // Fork the captured mid-run state and re-continue: machine digest, trace,
  // and verdict must all reproduce bit-for-bit.
  ReplayPolicy p2({}, /*horizon=*/24);
  p2.seed(rt.hook.rec);
  rt.prog->restore(*rt.hook.snap);
  rt.prog->set_schedule_policy(&p2);
  rt.prog->resume();
  const rt::Program::Snapshot final2 = rt.prog->snapshot();
  RunOutcome out2;
  spec.judge(*rt.prog, out2);

  EXPECT_EQ(sim::Machine::digest(final1.m), sim::Machine::digest(final2.m));
  EXPECT_EQ(final1.trace.size(), final2.trace.size());
  EXPECT_EQ(out1.ok, out2.ok);
  EXPECT_EQ(out1.trace_hash, out2.trace_hash);
  EXPECT_EQ(out1.message, out2.message);
}

TEST(SnapshotRoundTrip, RestoreIsIdempotent) {
  const LitmusTarget target(model::litmus::fig4_exclusive(),
                            rt::Target::kDSM);
  const StatefulSpec spec = target.make_spec();
  RoundTrip rt(spec);
  ASSERT_TRUE(rt.hook.snap.has_value());
  const uint64_t mid_digest = sim::Machine::digest(rt.hook.snap->m);

  // restore → snapshot must reproduce the captured state exactly, however
  // many times the same snapshot is re-entered.
  uint64_t final_digest = 0;
  for (int round = 0; round < 2; ++round) {
    ReplayPolicy p({}, /*horizon=*/24);
    p.seed(rt.hook.rec);
    rt.prog->restore(*rt.hook.snap);
    EXPECT_EQ(sim::Machine::digest(rt.prog->snapshot().m), mid_digest)
        << "round " << round;
    rt.prog->set_schedule_policy(&p);
    rt.prog->resume();
    const uint64_t d = sim::Machine::digest(rt.prog->snapshot().m);
    if (round == 0) {
      final_digest = d;
    } else {
      EXPECT_EQ(d, final_digest);
    }
  }
}

// -- The ReplayPolicy recording contract (scheduler state outside the
// machine must travel with the snapshot) ------------------------------------

TEST(RecordingContract, ResumingWithAnUnseededPolicyThrowsOutOfOrder) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  RoundTrip rt(target.make_spec());
  ASSERT_TRUE(rt.hook.snap.has_value());

  // A fresh policy that was never seeded believes the run starts at step 0;
  // the restored machine resumes at step 8. The policy must refuse loudly —
  // silently re-numbering the steps would corrupt every recorded footprint
  // and override match of the shared prefix.
  ReplayPolicy unseeded({}, /*horizon=*/24);
  rt.prog->restore(*rt.hook.snap);
  rt.prog->set_schedule_policy(&unseeded);
  try {
    rt.prog->resume();
    FAIL() << "resume with an unseeded policy must throw";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "scheduler decisions arrived out of order"),
              std::string::npos)
        << e.what();
  }
}

TEST(RecordingContract, SeededResumeRecordsWhatAFullReplayRecords) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kSWCC);
  RoundTrip rt(target.make_spec());
  ASSERT_TRUE(rt.hook.snap.has_value());
  const ReplayPolicy::Recording full = rt.policy.export_recording();

  ReplayPolicy p2({}, /*horizon=*/24);
  p2.seed(rt.hook.rec);
  rt.prog->restore(*rt.hook.snap);
  rt.prog->set_schedule_policy(&p2);
  rt.prog->resume();
  const ReplayPolicy::Recording resumed = p2.export_recording();

  // DPOR consumes these post-run: a resumed policy must be indistinguishable
  // from one that watched the whole run.
  EXPECT_EQ(resumed.steps, full.steps);
  EXPECT_EQ(resumed.cand_count, full.cand_count);
  EXPECT_EQ(resumed.cand_cores, full.cand_cores);
  EXPECT_EQ(resumed.chosen, full.chosen);
  EXPECT_EQ(resumed.observable, full.observable);
}

}  // namespace
}  // namespace pmc::explore
