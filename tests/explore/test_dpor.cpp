// Happens-before dynamic partial-order reduction (DESIGN.md §8), driven
// through the CheckSession API, plus the trace-equivalence contract of
// `distinct_traces` (DESIGN.md §9).
//
// The acceptance properties of ISSUE 4 still hold through the session: with
// --dpor=sleepset the explored count on the annotatable litmus suite (k=2,
// H=24, all four back-ends) drops by >= 3x versus --dpor=off while the set
// of distinct minimized failing decision strings stays identical; the
// seeded fig4_exclusive fault is still found, minimized, and replayed on
// every faultable back-end; and all totals are bit-identical at any job
// count. ISSUE 5 adds: distinct_traces hashes the happens-before quotient,
// so commuting schedules stop counting as distinct behaviors.
#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "explore/program_gen.h"
#include "model/litmus_library.h"
#include "sim/machine.h"

namespace pmc::explore {
namespace {

TEST(DporMode, ParsesAndPrints) {
  EXPECT_STREQ(to_string(DporMode::kOff), "off");
  EXPECT_STREQ(to_string(DporMode::kSleepSet), "sleepset");
  EXPECT_EQ(dpor_mode_from_string("off"), DporMode::kOff);
  EXPECT_EQ(dpor_mode_from_string("sleepset"), DporMode::kSleepSet);
  EXPECT_FALSE(dpor_mode_from_string("on").has_value());
  // No footprint-only mode: sleepset already prunes everything it would.
  EXPECT_FALSE(dpor_mode_from_string("footprint").has_value());
}

// -- The headline reduction (acceptance criterion) ---------------------------

TEST(Dpor, ReducesTheLitmusSuiteAtLeastThreefold) {
  // One sweep, two claims. The reduction: sleep sets explore at least 3x
  // fewer schedules of the annotatable suite. The trace-equivalence
  // contract: distinct_traces hashes the happens-before quotient, so the
  // hundreds of explored interleavings collapse to a handful of behavior
  // classes. The unreduced count can only be >= the sleep-set-reduced one:
  // off-mode additionally reaches classes whose distinguishing race is
  // resolved by frontier-warp timing beyond the reordered pair, which
  // footprint commutation deliberately does not model (DESIGN.md §8's
  // timed-machine caveat).
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 24;
  uint64_t explored_off = 0;
  uint64_t explored_dpor = 0;
  uint64_t traces_off = 0;
  for (rt::Target t : rt::sim_targets()) {
    for (const auto& test : annotatable_tests()) {
      const LitmusTarget target(test, t);
      cfg.dpor = DporMode::kOff;
      const auto off = CheckSession(cfg).explore(target);
      cfg.dpor = DporMode::kSleepSet;
      const auto on = CheckSession(cfg).explore(target);
      // The clean suite must stay clean under reduction, and the reduced
      // run accounts for what it skipped.
      EXPECT_EQ(off.failing, 0u) << test.name << " on " << rt::to_string(t);
      EXPECT_EQ(on.failing, 0u) << test.name << " on " << rt::to_string(t);
      EXPECT_EQ(off.dpor_pruned, 0u);
      EXPECT_GT(on.dpor_pruned, 0u) << test.name << " on " << rt::to_string(t);
      EXPECT_LE(on.explored, off.explored);
      EXPECT_GE(off.distinct_traces, on.distinct_traces)
          << test.name << " on " << rt::to_string(t);
      explored_off += off.explored;
      explored_dpor += on.explored;
      traces_off += off.distinct_traces;
    }
  }
  ASSERT_GT(explored_dpor, 0u);
  EXPECT_GE(explored_off, 3 * explored_dpor)
      << "DPOR must reduce the 6-test suite by at least 3x (got "
      << explored_off << " vs " << explored_dpor << ")";
  // Behavior classes, not interleavings: the whole unreduced suite explores
  // two orders of magnitude more schedules than it has behaviors.
  ASSERT_GT(traces_off, 0u);
  EXPECT_GE(explored_off, 50 * traces_off)
      << "the quotient hash must collapse commuting interleavings";
}

TEST(Dpor, CollapsesFullyCommutingPrefixesToOneSchedule) {
  // fig5's writer only touches its lock word and the data object inside the
  // first 24 decisions, while the reader only polls the still-unwritten
  // flag: every in-horizon reordering commutes, so the reduced space is a
  // single schedule and every alternative is accounted as dpor-pruned.
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 24;
  cfg.dpor = DporMode::kSleepSet;
  const auto rep = CheckSession(cfg).explore(target);
  EXPECT_EQ(rep.explored, 1u);
  EXPECT_EQ(rep.dpor_pruned, 24u);  // one bypassed candidate per decision
  EXPECT_EQ(rep.failing, 0u);
}

// -- Trace-equivalence-aware distinct_traces (ISSUE 5 satellite) -------------

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

TEST(Dpor, DistinctTracesAgreeAcrossAllModesWhereRacesAreInHorizon) {
  // fig4_exclusive has no poll loops and its one race (two cores, one lock)
  // is decided inside the branchable window, so every behavior class is
  // reachable by an explicit branch and both modes count the same classes
  // on every back-end — the exact-equality half of the satellite.
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 24;
  for (rt::Target t : rt::sim_targets()) {
    const LitmusTarget target(model::litmus::fig4_exclusive(), t);
    cfg.dpor = DporMode::kOff;
    const auto off = CheckSession(cfg).explore(target);
    cfg.dpor = DporMode::kSleepSet;
    const auto ss = CheckSession(cfg).explore(target);
    EXPECT_EQ(off.distinct_traces, ss.distinct_traces) << rt::to_string(t);
    EXPECT_GE(off.distinct_traces, 2u)
        << rt::to_string(t) << ": both lock orders must be reachable";
  }
}

// A raw 2-core timing race: core 0 posts ten stores to disjoint addresses
// and then X=1; core 1 computes for 50k cycles and then stores X=2. The
// final value of X depends on *when* segments run, not only on their
// conflict order: every non-default dispatch shifts the frontier warp and
// with it all later posted-write arrivals. This program is deliberately
// outside the annotation discipline (naked racy stores) — it probes the
// boundary of what footprint commutation can claim in a timed machine.
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

TEST(Dpor, PureDelaySegmentsAreNeverTreatedAsIndependent) {
  // At horizon 2 the branchable prefix is exactly {core 0's first store
  // slice, core 1's compute}: one side of each candidate/default pair is
  // pure delay, so DPOR must not prune anything — the reduced space equals
  // the full one. (An empty footprint commutes with everything by the
  // conflict relation, but its *displacement* is a timing effect only
  // prune_delay may trade away.)
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 2;
  cfg.prune_delay = false;
  const FnTarget target("timing-race", run_timing_race);
  cfg.dpor = DporMode::kOff;
  const auto off = CheckSession(cfg).explore(target);
  EXPECT_EQ(off.explored, 3u);  // root + one alternative at each step
  cfg.dpor = DporMode::kSleepSet;
  const auto on = CheckSession(cfg).explore(target);
  EXPECT_EQ(on.explored, off.explored);
  EXPECT_EQ(on.dpor_pruned, 0u);
  EXPECT_EQ(on.distinct_traces, off.distinct_traces);
}

TEST(Dpor, UndisciplinedTimingRacesAreOutsideTheDporContract) {
  // Documents the §8 limitation: reordering two disjoint-footprint stores
  // shifts how far the frontier warp pushes the bypassed core, which can
  // flip the cycle-level arbitration of a *naked* same-address write race.
  // DPOR preserves conflict order, not cycle arithmetic — such programs are
  // rejected by the annotation discipline the drivers enforce, and --dpor
  // defaults to off for anything outside it.
  EXPECT_EQ(ExploreConfig{}.dpor, DporMode::kOff);
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 40;
  cfg.prune_delay = false;
  const FnTarget target("timing-race", run_timing_race);
  const auto off = CheckSession(cfg).explore(target);
  // The unreduced default reaches both final values of the race...
  EXPECT_EQ(off.distinct_traces, 2u);
  // ...while the reduced search collapses disjoint-store reorderings and
  // keeps only the conflict-order representative. If this ever starts
  // matching the unreduced count, the timed-commutation caveat in
  // DESIGN.md §8 can be retired.
  cfg.dpor = DporMode::kSleepSet;
  const auto on = CheckSession(cfg).explore(target);
  EXPECT_LT(on.explored, off.explored);
  EXPECT_LE(on.distinct_traces, off.distinct_traces);
}

// -- Identical failing sets (acceptance criterion) ---------------------------

std::set<std::string> minimized_failing_set(const CheckSession& session,
                                            const CheckTarget& target,
                                            const ExploreReport& rep) {
  std::set<std::string> out;
  for (const DecisionString& f : rep.failing_schedules) {
    out.insert(to_string(session.minimize(target, f)));
  }
  return out;
}

class DporSeeded : public ::testing::TestWithParam<rt::Target> {};

TEST_P(DporSeeded, FailingSetsAreIdenticalAcrossDporModes) {
  const LitmusTarget target = seeded_bug_check(GetParam());
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;

  cfg.dpor = DporMode::kOff;
  const CheckSession s_off(cfg);
  const auto off = s_off.explore(target);
  ASSERT_GT(off.failing, 0u);
  cfg.dpor = DporMode::kSleepSet;
  const CheckSession s_ss(cfg);
  const auto ss = s_ss.explore(target);

  // Strictly fewer runs, same bugs: after minimization the failure sets of
  // both modes collapse to the same strings.
  EXPECT_LT(ss.explored, off.explored);
  ASSERT_GT(ss.failing, 0u);
  const auto set_off = minimized_failing_set(s_off, target, off);
  const auto set_ss = minimized_failing_set(s_ss, target, ss);
  EXPECT_EQ(set_off, set_ss);

  // The canonical minimized failure still replays to the same violation.
  const auto minimal = s_ss.minimize(target, ss.first_failing);
  ASSERT_FALSE(minimal.empty());
  bool applied = false;
  const auto confirm = s_ss.replay(target, minimal, &applied);
  EXPECT_FALSE(confirm.ok);
  EXPECT_TRUE(applied);
}

INSTANTIATE_TEST_SUITE_P(FaultableTargets, DporSeeded,
                         ::testing::Values(rt::Target::kSWCC,
                                           rt::Target::kDSM,
                                           rt::Target::kSPM),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

// -- Job-count invariance of the reduced tree (acceptance criterion) ---------

TEST(Dpor, TotalsAreBitIdenticalAcrossJobCounts) {
  const LitmusTarget target = seeded_bug_check(rt::Target::kDSM);
  SessionOptions opts;
  opts.explore.preemption_bound = 2;
  opts.explore.horizon = 16;
  opts.explore.dpor = DporMode::kSleepSet;
  const CheckReport s = CheckSession(opts).check(target);
  ASSERT_GT(s.failing, 0u);
  for (int jobs : {2, 8}) {
    opts.jobs = jobs;
    const CheckReport p = CheckSession(opts).check(target);
    EXPECT_EQ(p.to_text(), s.to_text()) << "jobs=" << jobs;
  }
}

// -- Generated programs pick the reduction up for free ----------------------

TEST(Dpor, GenProgramTargetAgreesWithTheUnreducedVerdict) {
  // Scan a few fuzz seeds with every seeded protocol fault injected; on the
  // first program whose unreduced exploration fails, the reduced one must
  // fail too, on the same back-ends — GenProgramTarget picks DPOR up
  // through ExploreConfig without any code of its own.
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 10;
  bool found_failure = false;
  for (uint64_t seed = 0; seed < 6 && !found_failure; ++seed) {
    const GenProgram prog = generate_program(shape_for_seed(seed));
    for (const rt::Target t : rt::sim_targets()) {
      const GenProgramTarget target(prog, t, all_seeded_faults());
      cfg.dpor = DporMode::kOff;
      const auto off = CheckSession(cfg, /*jobs=*/1).explore(target);
      cfg.dpor = DporMode::kSleepSet;
      const auto on = CheckSession(cfg, /*jobs=*/2).explore(target);
      EXPECT_LE(on.explored, off.explored) << target.name();
      EXPECT_EQ(off.failing > 0, on.failing > 0) << target.name();
      found_failure = found_failure || off.failing > 0;
    }
  }
  EXPECT_TRUE(found_failure)
      << "no seed in [0, 6) exposed a seeded fault at these bounds";
}

}  // namespace
}  // namespace pmc::explore
