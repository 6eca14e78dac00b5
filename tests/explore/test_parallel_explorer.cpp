// Job-count invariance through the session API: totals and the canonical
// (lexicographically least) failing schedule must be independent of the
// worker count, minimization must be identical at any job count, and at
// jobs = 1 — a plain depth-first search on the calling thread — the
// traversal-order telemetry must repeat exactly (DESIGN.md §7/§9).
#include "explore/check.h"

#include <gtest/gtest.h>

#include <atomic>

#include "explore/litmus_driver.h"
#include "model/litmus_library.h"

namespace pmc::explore {
namespace {

CheckSession session_for(const ExploreConfig& cfg, int jobs) {
  SessionOptions opts;
  opts.explore = cfg;
  opts.jobs = jobs;
  return CheckSession(opts);
}

/// The greedy first-accept scan, written out sequentially: drop the first
/// override whose removal still fails with every override applied, and
/// start over until no override can go.
DecisionString first_accept_scan(const ScheduleRunner& runner,
                                 DecisionString failing, uint64_t horizon) {
  bool changed = true;
  while (changed && !failing.empty()) {
    changed = false;
    for (size_t i = 0; i < failing.size(); ++i) {
      DecisionString shorter = failing;
      shorter.erase(shorter.begin() + static_cast<ptrdiff_t>(i));
      ReplayPolicy policy(shorter, horizon, /*record_footprints=*/false);
      if (!runner(policy).ok && policy.unused_overrides() == 0) {
        failing = std::move(shorter);
        changed = true;
        break;
      }
    }
  }
  return failing;
}

TEST(LexLess, OrdersByStepThenChoiceThenLength) {
  const DecisionString empty;
  const DecisionString a{{2, 1}};
  const DecisionString b{{2, 2}};
  const DecisionString c{{3, 1}};
  const DecisionString ab{{2, 1}, {5, 1}};
  EXPECT_TRUE(lex_less(empty, a));
  EXPECT_TRUE(lex_less(a, b));
  EXPECT_TRUE(lex_less(b, c));
  EXPECT_TRUE(lex_less(a, ab));  // prefix sorts before its extension
  EXPECT_FALSE(lex_less(ab, a));
  EXPECT_FALSE(lex_less(a, a));
}

TEST(ParallelEngine, MatchesSequentialTotalsOnCleanSweep) {
  // jobs = 1 is the sequential search; more workers must cover the same
  // tree.
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 10;
  cfg.prune_delay = false;
  const auto s = session_for(cfg, 1).explore(target);
  ASSERT_EQ(s.explored, 56u);  // Σ C(10, j), j ≤ 2 — the closed form
  for (int jobs : {2, 8}) {
    const auto p = session_for(cfg, jobs).explore(target);
    EXPECT_EQ(p.explored, s.explored) << "jobs=" << jobs;
    EXPECT_EQ(p.pruned, s.pruned) << "jobs=" << jobs;
    EXPECT_EQ(p.distinct_traces, s.distinct_traces) << "jobs=" << jobs;
    EXPECT_EQ(p.failing, 0u);
    EXPECT_FALSE(p.truncated);
  }
}

TEST(ParallelEngine, PruningAccountingMatchesSequential) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 1;  // depth 1: explored + pruned is the closed form
  cfg.horizon = 10;
  cfg.prune_delay = true;
  const auto s = session_for(cfg, 1).explore(target);
  EXPECT_EQ(s.explored + s.pruned, 11u);
  for (int jobs : {2, 8}) {
    const auto p = session_for(cfg, jobs).explore(target);
    EXPECT_EQ(p.explored, s.explored) << "jobs=" << jobs;
    EXPECT_EQ(p.pruned, s.pruned) << "jobs=" << jobs;
  }
}

TEST(ParallelEngine, TruncationCapsTheExploredCount) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 10;
  cfg.prune_delay = false;
  cfg.max_schedules = 7;
  for (int jobs : {1, 2, 8}) {
    const auto p = session_for(cfg, jobs).explore(target);
    EXPECT_TRUE(p.truncated) << "jobs=" << jobs;
    EXPECT_EQ(p.explored, 7u) << "jobs=" << jobs;
  }
}

TEST(ParallelEngine, SingleJobTelemetryIsDeterministic) {
  // At jobs = 1 the owner pops its own deque LIFO and nobody steals, so
  // the traversal order — and everything measured along it — repeats.
  const LitmusTarget target = seeded_bug_check(rt::Target::kDSM);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const auto a = session_for(cfg, 1).explore(target);
  const auto b = session_for(cfg, 1).explore(target);
  ASSERT_GT(a.failing, 0u);
  EXPECT_GT(a.schedules_to_first_failure, 0u);
  EXPECT_EQ(a.schedules_to_first_failure, b.schedules_to_first_failure);
  EXPECT_FALSE(a.hb_curve.empty());
  EXPECT_EQ(a.hb_curve, b.hb_curve);
  EXPECT_EQ(a.snapshots_taken, b.snapshots_taken);
  EXPECT_EQ(a.snapshot_hits, b.snapshot_hits);
  EXPECT_EQ(a.snapshot_misses, b.snapshot_misses);
  EXPECT_GT(a.snapshots_taken, 0u);  // the snapshot engine really ran
  EXPECT_EQ(a.worker_steals, std::vector<uint64_t>{0});
}

// -- Whole-report determinism (the CheckSession contract) --------------------

TEST(CheckReport, SeededBugReportIsIdenticalAtAnyJobCount) {
  const LitmusTarget target = seeded_bug_check(rt::Target::kDSM);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const CheckReport ref = session_for(cfg, 1).check(target);
  ASSERT_GT(ref.failing, 0u);
  ASSERT_FALSE(ref.minimized_schedule.empty());
  ASSERT_FALSE(ref.minimized_message.empty());
  for (int jobs : {2, 8}) {
    const CheckReport rep = session_for(cfg, jobs).check(target);
    EXPECT_EQ(rep.to_text(), ref.to_text()) << "jobs=" << jobs;
  }
}

TEST(CheckReport, SequentialAndParallelReportsAreByteIdentical) {
  // Failures canonicalize to the lexicographic minimum and minimization
  // accepts the lowest failing index, so the whole rendered report —
  // counts, failing schedule, message, minimization — is byte-identical
  // between the sequential search (jobs = 1) and jobs ∈ {2, 8}.
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const CheckSession seq = session_for(cfg, 1);
  const CheckReport s = seq.check(target);
  ASSERT_GT(s.failing, 0u);
  for (int jobs : {2, 8}) {
    const CheckReport p = session_for(cfg, jobs).check(target);
    EXPECT_EQ(p.to_text(), s.to_text()) << "jobs=" << jobs;
  }
  // And the canonical failure really fails.
  bool applied = false;
  EXPECT_FALSE(seq.replay(target, s.first_failing, &applied).ok);
  EXPECT_TRUE(applied);
}

TEST(ParallelEngine, MinimizeAgreesWithSequentialMinimize) {
  // Every failing schedule of the space minimizes to the string the
  // sequential first-accept scan produces, at every job count.
  const LitmusTarget target = seeded_bug_check(rt::Target::kSPM);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const auto rep = session_for(cfg, 1).explore(target);
  ASSERT_GT(rep.failing, 0u);
  for (const DecisionString& f : rep.failing_schedules) {
    const std::string ref =
        to_string(first_accept_scan(target.runner(), f, cfg.horizon));
    for (int jobs : {1, 2, 8}) {
      EXPECT_EQ(to_string(session_for(cfg, jobs).minimize(target, f)), ref)
          << "from \"" << to_string(f) << "\" jobs=" << jobs;
    }
  }
}

TEST(ParallelEngine, SingleJobMinimizeReplaysLikeAFirstAcceptScan) {
  // The lowest-index-wins round stops claiming indices past the first
  // still-failing reduction, so at jobs = 1 it runs exactly the replays of
  // the first-accept scan — no speculative evaluation.
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const CheckSession session = session_for(cfg, 1);
  const auto rep = session.explore(target);
  ASSERT_GT(rep.failing, 0u);
  std::atomic<uint64_t> calls{0};
  const FnTarget counting("counting", [&](ReplayPolicy& p) {
    ++calls;
    return target.run(p);
  });
  uint64_t total = 0;
  for (const DecisionString& f : rep.failing_schedules) {
    calls = 0;
    const DecisionString ref =
        first_accept_scan(counting.runner(), f, cfg.horizon);
    const uint64_t ref_calls = calls.exchange(0);
    EXPECT_EQ(to_string(session.minimize(counting, f)), to_string(ref));
    EXPECT_EQ(calls.load(), ref_calls) << "from \"" << to_string(f) << "\"";
    total += ref_calls;
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace pmc::explore
