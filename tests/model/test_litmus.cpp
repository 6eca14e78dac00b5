// Litmus-test outcome checks: the paper's figures as executable claims,
// and the memoized enumerator against the unreduced reference search.
#include "model/litmus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../support/litmus_reference.h"
#include "model/litmus_library.h"
#include "util/check.h"
#include "util/rng.h"

namespace pmc::model {
namespace {

using litmus::fig1_mp_plain;
using litmus::fig4_exclusive;
using litmus::fig5_mp_annotated;
using litmus::fig5_mp_no_reader_fence;
using litmus::fig5_mp_no_writer_fence;

ExploreOptions program_order() { return {IssueMode::kProgramOrder, 3, 5'000'000}; }
// Window 4 so a hoisted critical section can also retire its release —
// otherwise the deadlocked path is pruned and the stale outcome hides.
ExploreOptions weak_issue() { return {IssueMode::kWeakIssue, 4, 5'000'000}; }

TEST(Litmus, Fig1PlainMessagePassingAllowsStaleRead) {
  const auto res = explore(fig1_mp_plain(), program_order());
  EXPECT_FALSE(res.truncated);
  // Both the fresh and the stale value are reachable — the motivating bug.
  EXPECT_TRUE(res.outcomes.count({42}));
  EXPECT_TRUE(res.outcomes.count({0}));
  EXPECT_EQ(res.outcomes.size(), 2u);
}

TEST(Litmus, Fig5AnnotatedMessagePassingIsExact) {
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto res = explore(fig5_mp_annotated(), opts);
    EXPECT_FALSE(res.truncated);
    EXPECT_EQ(res.outcomes, std::set<Outcome>{{42}})
        << "mode=" << static_cast<int>(opts.mode);
    EXPECT_FALSE(res.race_observed);
  }
}

TEST(Litmus, Fig5ReaderFenceIsEssentialUnderWeakIssue) {
  // In program order the missing fence is invisible...
  const auto in_order = explore(fig5_mp_no_reader_fence(), program_order());
  EXPECT_EQ(in_order.outcomes, std::set<Outcome>{{42}});
  // ...but a weak issue engine may hoist the acquire above the poll loop
  // (Table I r→A is blank) and the stale read appears.
  const auto weak = explore(fig5_mp_no_reader_fence(), weak_issue());
  EXPECT_TRUE(weak.outcomes.count({42}));
  EXPECT_TRUE(weak.outcomes.count({0}))
      << "hoisted acquire should expose the stale value";
}

TEST(Litmus, Fig5WriterFenceIsModelRedundant) {
  // X=42 ≺P rel X already holds, so removing the line-3 fence changes
  // nothing — an analysis result the model makes checkable.
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto with_fence = explore(fig5_mp_annotated(), opts);
    const auto without = explore(fig5_mp_no_writer_fence(), opts);
    EXPECT_EQ(with_fence.outcomes, without.outcomes);
  }
}

TEST(Litmus, Fig4ExclusiveAccessHidesIntermediateValue) {
  const auto res = explore(fig4_exclusive(), program_order());
  EXPECT_TRUE(res.outcomes.count({0}));
  EXPECT_TRUE(res.outcomes.count({2}));
  EXPECT_FALSE(res.outcomes.count({1}))
      << "the intermediate value must never escape the critical section";
  EXPECT_EQ(res.outcomes.size(), 2u);
}

TEST(Litmus, StoreBufferingUnsynchronizedAllowsEverything) {
  const auto res = explore(litmus::sb_plain(), program_order());
  EXPECT_EQ(res.outcomes.size(), 4u);
  EXPECT_TRUE(res.outcomes.count({0, 0}));
  EXPECT_TRUE(res.outcomes.count({1, 1}));
}

TEST(Litmus, StoreBufferingWithEntryExitPairsIsSequentiallyConsistent) {
  // §IV-E: with per-object acquire/release pairs and fences, PMC behaves
  // like PC, which simulates SC for data-race-free programs: (0,0) vanishes.
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto res = explore(litmus::sb_locked(), opts);
    EXPECT_FALSE(res.outcomes.count({0, 0}))
        << "mode=" << static_cast<int>(opts.mode);
    EXPECT_TRUE(res.outcomes.count({1, 0}));
    EXPECT_TRUE(res.outcomes.count({0, 1}));
    EXPECT_TRUE(res.outcomes.count({1, 1}));
    EXPECT_FALSE(res.race_observed);
  }
}

TEST(Litmus, ReadCoherenceForbidsGoingBackwards) {
  const auto res = explore(litmus::coherence_rr(), program_order());
  EXPECT_TRUE(res.outcomes.count({0, 0}));
  EXPECT_TRUE(res.outcomes.count({0, 1}));
  EXPECT_TRUE(res.outcomes.count({1, 1}));
  EXPECT_FALSE(res.outcomes.count({1, 0}))
      << "Definition 12 monotonicity: newer value cannot be followed by older";
}

TEST(Litmus, UnprotectedWriteRaceIsDetected) {
  const auto res = explore(litmus::racy_write_write(), program_order());
  EXPECT_TRUE(res.race_observed);
}

TEST(Litmus, LoadBufferingIsUnconstrainedWithoutSync) {
  // No cross-thread r→w edge exists in Table I, so even (1,1) — each load
  // observing the other thread's later store — has an interleaving-free
  // justification under slow reads... but with issue-order exploration the
  // loads can only see issued writes, so (1,1) needs weak issue.
  const auto in_order = explore(litmus::lb_plain(), program_order());
  EXPECT_TRUE(in_order.outcomes.count({0, 0}));
  EXPECT_TRUE(in_order.outcomes.count({0, 1}));
  EXPECT_TRUE(in_order.outcomes.count({1, 0}));
  EXPECT_FALSE(in_order.outcomes.count({1, 1}));
  const auto weak = explore(litmus::lb_plain(), weak_issue());
  EXPECT_TRUE(weak.outcomes.count({1, 1}))
      << "store may hoist above the unrelated load under weak issue";
}

TEST(Litmus, WriteToReadCausalityHoldsWithAnnotations) {
  // If P2 saw Y=1 (written by P1 after it read X), what P2 then reads from
  // X must be at least what P1 saw. Forbidden: r1=1 (P1 saw X=1), r2=1
  // (P2 saw Y=1), r3=0 (P2 missed X=1).
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto res = explore(litmus::wrc_locked(), opts);
    for (const auto& outcome : res.outcomes) {
      EXPECT_FALSE(outcome[0] == 1 && outcome[1] == 1 && outcome[2] == 0)
          << "causality violated";
    }
    EXPECT_TRUE(res.outcomes.count({1, 1, 1}));
    EXPECT_FALSE(res.race_observed);
  }
}

TEST(Litmus, OutcomeAllowedHelper) {
  EXPECT_TRUE(outcome_allowed(fig1_mp_plain(), {0}));
  EXPECT_FALSE(outcome_allowed(fig5_mp_annotated(), {0}));
}

TEST(Litmus, AllLibraryTestsExploreCleanly) {
  for (const auto& test : litmus::all_tests()) {
    const auto res = explore(test, program_order());
    EXPECT_FALSE(res.truncated) << test.name;
    EXPECT_FALSE(res.outcomes.empty()) << test.name;
  }
}

TEST(Litmus, PollThatCanNeverSucceedIsStuck) {
  LitmusTest t;
  t.name = "dead_poll";
  t.num_locs = 1;
  t.num_regs = 0;
  t.threads = {{{LitmusOp::load_until(0, 1)}}};
  const auto res = explore(t, program_order());
  EXPECT_TRUE(res.stuck);
  EXPECT_TRUE(res.outcomes.empty());
  EXPECT_FALSE(explore(litmus::fig5_mp_annotated(), program_order()).stuck);
}

TEST(Litmus, MalformedReleaseIsRejected) {
  LitmusTest t;
  t.name = "bad_release";
  t.num_locs = 1;
  t.num_regs = 0;
  t.threads = {{{LitmusOp::release(0)}}};
  EXPECT_THROW(explore(t, program_order()), util::CheckFailure);
}

TEST(Litmus, LocationBoundsAreValidated) {
  LitmusTest t;
  t.name = "bad_loc";
  t.num_locs = 1;
  t.num_regs = 1;
  t.threads = {{{LitmusOp::load(3, 0)}}};
  EXPECT_THROW(explore(t, program_order()), util::CheckFailure);
}

// -- Memoized enumeration vs the unreduced reference (DESIGN.md §4) ---------

std::vector<ExploreOptions> weak_windows() {
  return {{IssueMode::kWeakIssue, 3, 5'000'000},
          {IssueMode::kWeakIssue, 4, 5'000'000}};
}

std::string describe(const ExploreOptions& opts) {
  return opts.mode == IssueMode::kProgramOrder
             ? std::string("program order")
             : "weak issue, window " + std::to_string(opts.weak_window);
}

/// Outcome set, race, stuckness and truncation agree with the path-by-path
/// search.
void expect_matches_reference(const LitmusTest& test,
                              const ExploreOptions& opts) {
  const ExploreResult got = explore(test, opts);
  const test_support::ReferenceResult ref =
      test_support::explore_reference(test, opts);
  const std::string where = test.name + ", " + describe(opts);
  EXPECT_EQ(got.outcomes, ref.outcomes) << where;
  EXPECT_EQ(got.race_observed, ref.race_observed) << where;
  EXPECT_EQ(got.stuck, ref.stuck_paths > 0) << where;
  EXPECT_EQ(got.truncated, ref.truncated) << where;
}

TEST(LitmusMemo, LibraryMatchesReferenceInProgramOrder) {
  for (const auto& test : litmus::all_tests()) {
    expect_matches_reference(test, program_order());
  }
}

TEST(LitmusMemo, LibraryMatchesReferenceUnderWeakIssue) {
  for (const auto& opts : weak_windows()) {
    for (const auto& test : litmus::all_tests()) {
      expect_matches_reference(test, opts);
    }
  }
}

/// A random well-formed program: 2–3 threads of at most 5 ops over at most
/// 3 locations, with properly nested lock sections, stores of 1 or 2 (so
/// equal values come from different writes), loads, polls for 0–2 (some
/// never succeed) and fences. Threads that nest sections in opposite orders
/// can deadlock. At most 9 ops in all: the path-by-path reference takes
/// seconds per program at 12–13 ops under weak issue.
LitmusTest random_litmus(uint64_t seed) {
  util::Rng rng(seed);
  LitmusTest t;
  t.name = "random_" + std::to_string(seed);
  t.num_locs = 1 + static_cast<int>(rng.next_below(3));
  t.threads.resize(2 + rng.next_below(2));
  size_t budget = 9;
  for (size_t i = 0; i < t.threads.size(); ++i) {
    auto& th = t.threads[i];
    const size_t later = t.threads.size() - i - 1;
    const size_t len = 1 + rng.next_below(std::min<size_t>(5, budget - later));
    budget -= len;
    std::vector<LocId> held;  // innermost last
    while (th.ops.size() < len) {
      const size_t room = len - th.ops.size();
      const LocId v = static_cast<LocId>(rng.next_below(t.num_locs));
      const uint64_t choice = rng.next_below(6);
      if (room == held.size() || (choice == 0 && !held.empty())) {
        th.ops.push_back(LitmusOp::release(held.back()));
        held.pop_back();
      } else if (choice == 1 && room >= held.size() + 2 &&
                 std::find(held.begin(), held.end(), v) == held.end()) {
        th.ops.push_back(LitmusOp::acquire(v));
        held.push_back(v);
      } else if (choice == 2) {
        th.ops.push_back(LitmusOp::store(v, 1 + rng.next_below(2)));
      } else if (choice == 3) {
        th.ops.push_back(LitmusOp::load(v, t.num_regs++));
      } else if (choice == 4) {
        th.ops.push_back(LitmusOp::load_until(v, rng.next_below(3)));
      } else if (choice == 5) {
        th.ops.push_back(LitmusOp::fence());
      }
    }
  }
  return t;
}

constexpr uint64_t kRandomPrograms = 200;

void expect_random_programs_match(const ExploreOptions& opts) {
  for (uint64_t seed = 1; seed <= kRandomPrograms; ++seed) {
    expect_matches_reference(random_litmus(seed), opts);
  }
}

TEST(LitmusMemo, RandomProgramsMatchReferenceInProgramOrder) {
  expect_random_programs_match(program_order());
}

TEST(LitmusMemo, RandomProgramsMatchReferenceUnderWeakIssueWindow3) {
  expect_random_programs_match(weak_windows()[0]);
}

TEST(LitmusMemo, RandomProgramsMatchReferenceUnderWeakIssueWindow4) {
  expect_random_programs_match(weak_windows()[1]);
}

TEST(LitmusMemo, ReadsOfEqualValuesFromDifferentWritesStayApart) {
  // r0 = 1 from P1's first write lets r1 read P1's later 2; r0 = 1 from
  // P0's write does not (read monotonicity). The two states differ only in
  // the read's source, and the search meets P0's source first, so merging
  // them loses (1, 2).
  using Op = LitmusOp;
  LitmusTest t;
  t.name = "equal_values_two_sources";
  t.num_locs = 2;
  t.num_regs = 2;
  t.threads = {
      {{Op::store(litmus::kX, 1), Op::store(litmus::kF, 1)}},
      {{Op::store(litmus::kX, 1), Op::store(litmus::kX, 2)}},
      {{Op::load_until(litmus::kF, 1), Op::load(litmus::kX, 0),
        Op::load(litmus::kX, 1)}},
  };
  const auto res = explore(t, program_order());
  EXPECT_TRUE(res.outcomes.count({1, 2}));
  expect_matches_reference(t, program_order());
}

TEST(LitmusMemo, InterleavingsReachingOneStateMerge) {
  const LitmusTest test = litmus::sb_locked();
  const auto memo = explore(test, program_order());
  const auto ref = test_support::explore_reference(test, program_order());
  EXPECT_LT(memo.states * 10, ref.paths)
      << memo.states << " states vs " << ref.paths << " paths";
}

TEST(LitmusMemo, IssueOrderDoesNotSplitStates) {
  // w→r on different locations is blank in Table I, so weak issue runs the
  // load before or after the store. Both orders give the same renamed graph
  // (init x → store, init y → load) and the same registers, so the states
  // are {}, {store}, {load} and {store, load}: four, not five.
  LitmusTest t;
  t.name = "store_then_independent_load";
  t.num_locs = 2;
  t.num_regs = 1;
  t.threads = {{{LitmusOp::store(litmus::kX, 1),
                 LitmusOp::load(litmus::kF, 0)}}};
  const ExploreOptions weak = weak_windows()[0];
  const auto res = explore(t, weak);
  EXPECT_EQ(res.states, 4u);
  EXPECT_EQ(res.outcomes, std::set<Outcome>{{0}});
  expect_matches_reference(t, weak);
}

TEST(LitmusMemo, LockOrderStaysInTheKey) {
  // Under weak issue P0's acquire may hoist above its store (w→A is blank),
  // so both lock sections can end with the same ops issued and the same
  // bookkeeping, apart from which section synchronized with the other. Only
  // if P1's section went first is P0's store p1-after P1's, so that P1's
  // load can read 1. A key without the ≺S edges merges the two and loses
  // that outcome.
  using Op = LitmusOp;
  LitmusTest t;
  t.name = "lock_order_decides_a_read";
  t.num_locs = 1;
  t.num_regs = 1;
  t.threads = {
      {{Op::store(litmus::kX, 1), Op::acquire(litmus::kX),
        Op::release(litmus::kX)}},
      {{Op::acquire(litmus::kX), Op::store(litmus::kX, 2),
        Op::release(litmus::kX), Op::load(litmus::kX, 0)}},
  };
  const ExploreOptions weak = weak_windows()[0];
  EXPECT_EQ(explore(t, weak).outcomes, (std::set<Outcome>{{1}, {2}}));
  expect_matches_reference(t, weak);
}

TEST(LitmusMemo, MaxStatesTruncates) {
  const LitmusTest test = litmus::wrc_locked();
  const auto full = explore(test, program_order());
  ASSERT_FALSE(full.truncated);
  ExploreOptions opts = program_order();
  opts.max_states = full.states;
  EXPECT_FALSE(explore(test, opts).truncated);
  opts.max_states = 10;
  const auto cut = explore(test, opts);
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.states, 10u);
}

}  // namespace
}  // namespace pmc::model
