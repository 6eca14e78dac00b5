// Deterministic min-time scheduler tests.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstddef>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.h"

namespace pmc::sim {
namespace {

TEST(Scheduler, SingleCoreRunsToCompletion) {
  Scheduler s(1);
  int steps = 0;
  s.run([&](int core) {
    EXPECT_EQ(core, 0);
    for (int i = 0; i < 10; ++i) s.advance(0, 5);
    steps = 10;
  });
  EXPECT_EQ(steps, 10);
}

TEST(Scheduler, InterleavesByMinimumTime) {
  // Core 0 advances in steps of 10, core 1 in steps of 3: the recorded
  // global order must be sorted by (time-before-step, id).
  Scheduler s(2);
  std::vector<std::pair<uint64_t, int>> order;
  s.run([&](int core) {
    const uint64_t step = core == 0 ? 10 : 3;
    for (int i = 0; i < 6; ++i) {
      order.emplace_back(s.now(core), core);
      s.advance(core, step);
    }
  });
  ASSERT_EQ(order.size(), 12u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1], order[i]) << "at step " << i;
  }
}

TEST(Scheduler, TieBreaksByLowerId) {
  Scheduler s(3);
  std::vector<int> first_at_zero;
  s.run([&](int core) {
    first_at_zero.push_back(core);
    s.advance(core, 1);
  });
  ASSERT_EQ(first_at_zero.size(), 3u);
  EXPECT_EQ(first_at_zero[0], 0);
  EXPECT_EQ(first_at_zero[1], 1);
  EXPECT_EQ(first_at_zero[2], 2);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto record = [] {
    Scheduler s(4);
    std::vector<int> order;
    s.run([&](int core) {
      for (int i = 0; i < 20; ++i) {
        order.push_back(core);
        s.advance(core, static_cast<uint64_t>((core * 7 + i * 3) % 11 + 1));
      }
    });
    return order;
  };
  const auto a = record();
  const auto b = record();
  EXPECT_EQ(a, b);
}

TEST(Scheduler, WatchdogThrows) {
  Scheduler s(1, /*max_cycles=*/1000);
  EXPECT_THROW(s.run([&](int core) {
                 for (;;) s.advance(core, 100);
               }),
               util::CheckFailure);
}

TEST(Scheduler, ExceptionInOneCorePropagates) {
  Scheduler s(2, /*max_cycles=*/100'000);
  EXPECT_THROW(s.run([&](int core) {
                 if (core == 0) throw std::runtime_error("boom");
                 // Core 1 spins until the watchdog fires.
                 for (;;) s.advance(core, 1000);
               }),
               std::runtime_error);
  EXPECT_TRUE(s.failed());
}

// ---------------------------------------------------------------------------
// SchedulePolicy hook
// ---------------------------------------------------------------------------

/// Records every decision; picks a scripted choice or the default.
class RecordingPolicy : public SchedulePolicy {
 public:
  explicit RecordingPolicy(std::vector<std::pair<uint64_t, int>> overrides = {})
      : overrides_(std::move(overrides)) {}

  int pick(const YieldPoint& yp,
           const std::vector<ScheduleCandidate>& cands) override {
    points.push_back(yp);
    cand_counts.push_back(cands.size());
    dispatch_times.push_back(cands[0].time);  // min-time candidate
    for (const auto& [step, choice] : overrides_) {
      if (step == yp.step && choice < static_cast<int>(cands.size())) {
        dispatch_times.back() = cands[static_cast<size_t>(choice)].time;
        return choice;
      }
    }
    return 0;
  }

  std::vector<YieldPoint> points;
  std::vector<size_t> cand_counts;
  std::vector<uint64_t> dispatch_times;  // pre-warp time of the chosen core

 private:
  std::vector<std::pair<uint64_t, int>> overrides_;
};

namespace workload {
/// A fixed 3-core workload; records (core, time-at-step) "trace bytes".
std::vector<uint8_t> run(Scheduler& s, std::vector<uint64_t>* final_clocks) {
  std::vector<uint8_t> trace;
  s.run([&](int core) {
    for (int i = 0; i < 12; ++i) {
      trace.push_back(static_cast<uint8_t>(core));
      for (int b = 0; b < 8; ++b) {
        trace.push_back(static_cast<uint8_t>(s.now(core) >> (8 * b)));
      }
      if (i % 3 == core % 3) s.note_effect(core);
      s.advance(core, static_cast<uint64_t>((core * 5 + i * 7) % 9 + 1));
    }
  });
  if (final_clocks != nullptr) {
    final_clocks->clear();
    for (int c = 0; c < s.num_cores(); ++c) final_clocks->push_back(s.now(c));
  }
  return trace;
}
}  // namespace workload

TEST(Scheduler, BitDeterministicAcrossRuns) {
  // Regression guard for the SchedulePolicy hook: two runs of the same
  // program must produce identical per-core final clocks and identical
  // trace bytes — scheduling depends only on simulated clocks, never on
  // host timing.
  Scheduler s1(3), s2(3);
  std::vector<uint64_t> clocks1, clocks2;
  const auto trace1 = workload::run(s1, &clocks1);
  const auto trace2 = workload::run(s2, &clocks2);
  EXPECT_EQ(clocks1, clocks2);
  EXPECT_EQ(trace1, trace2);
}

TEST(Scheduler, DefaultPolicyPreservesDefaultScheduleExactly) {
  Scheduler plain(3), hooked(3);
  RecordingPolicy policy;  // always returns 0: the min-time default
  hooked.set_policy(&policy);
  std::vector<uint64_t> clocks_plain, clocks_hooked;
  const auto trace_plain = workload::run(plain, &clocks_plain);
  const auto trace_hooked = workload::run(hooked, &clocks_hooked);
  EXPECT_EQ(trace_plain, trace_hooked);
  EXPECT_EQ(clocks_plain, clocks_hooked);
  EXPECT_GT(policy.points.size(), 0u);
  EXPECT_EQ(hooked.decisions(), policy.points.size());
}

TEST(Scheduler, PolicySeesSortedCandidatesAndSequentialSteps) {
  Scheduler s(3);
  RecordingPolicy policy;
  s.set_policy(&policy);
  workload::run(s, nullptr);
  ASSERT_FALSE(policy.points.empty());
  EXPECT_EQ(policy.points.front().step, 0u);
  EXPECT_EQ(policy.points.front().yielding, -1);  // initial dispatch
  for (size_t i = 0; i < policy.points.size(); ++i) {
    EXPECT_EQ(policy.points[i].step, i);
  }
  // All three cores runnable at the start; candidates shrink as cores end.
  EXPECT_EQ(policy.cand_counts.front(), 3u);
  EXPECT_EQ(policy.cand_counts.back(), 1u);
}

TEST(Scheduler, ObservabilityTracksNoteEffect) {
  Scheduler s(1);
  RecordingPolicy policy;
  s.set_policy(&policy);
  s.run([&](int core) {
    s.advance(core, 1);        // decision 1: nothing observable
    s.note_effect(core);
    s.advance(core, 1);        // decision 2: effect since last yield
    s.advance(core, 1);        // decision 3: flag consumed, pure again
  });
  ASSERT_GE(policy.points.size(), 4u);
  EXPECT_FALSE(policy.points[1].observable);
  EXPECT_TRUE(policy.points[2].observable);
  EXPECT_FALSE(policy.points[3].observable);
}

TEST(Scheduler, OverrideChangesOrderDeterministically) {
  RecordingPolicy a({{1, 1}, {4, 1}});
  RecordingPolicy b({{1, 1}, {4, 1}});
  Scheduler s1(3), s2(3), plain(3);
  s1.set_policy(&a);
  s2.set_policy(&b);
  const auto t1 = workload::run(s1, nullptr);
  const auto t2 = workload::run(s2, nullptr);
  const auto t0 = workload::run(plain, nullptr);
  EXPECT_EQ(t1, t2) << "overridden schedules must replay bit-identically";
  EXPECT_NE(t1, t0) << "the override must actually change the interleaving";
}

TEST(Scheduler, FrontierKeepsDispatchTimesMonotonic) {
  // Aggressively preempt: always pick the *last* (max-time) candidate. The
  // frontier warp must keep dispatch times nondecreasing, or bypassed cores
  // could generate memory events in the past of already-executed reads.
  class MaxTimePolicy : public SchedulePolicy {
   public:
    int pick(const YieldPoint&,
             const std::vector<ScheduleCandidate>& cands) override {
      chosen_times.push_back(cands.back().time);
      return static_cast<int>(cands.size()) - 1;
    }
    std::vector<uint64_t> chosen_times;
  };
  MaxTimePolicy policy;
  Scheduler s(3);
  s.set_policy(&policy);
  std::vector<std::pair<uint64_t, int>> dispatched;
  s.run([&](int core) {
    for (int i = 0; i < 10; ++i) {
      dispatched.emplace_back(s.now(core), core);
      s.advance(core, static_cast<uint64_t>(core + 1));
    }
  });
  // now() at the top of each resumption is the (post-warp) dispatch time.
  for (size_t i = 1; i < dispatched.size(); ++i) {
    EXPECT_GE(dispatched[i].first, dispatched[i - 1].first) << "at " << i;
  }
}

TEST(Scheduler, ManyCoresFinishIndependently) {
  Scheduler s(16);
  std::vector<uint64_t> final_time(16);
  s.run([&](int core) {
    for (int i = 0; i <= core; ++i) s.advance(core, 2);
    final_time[core] = s.now(core);
  });
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(final_time[c], static_cast<uint64_t>(2 * (c + 1)));
  }
}

// ---------------------------------------------------------------------------
// Ready queue against a linear-scan reference
// ---------------------------------------------------------------------------

using Dispatch = std::pair<int, uint64_t>;  // (core, clock) at each step
using Scripts = std::vector<std::vector<uint64_t>>;

/// Seeded per-core delta scripts: zero deltas and tiny steps make equal-clock
/// ties common, and empty or short scripts finish cores early.
Scripts make_scripts(int cores, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Scripts scripts(static_cast<size_t>(cores));
  for (auto& script : scripts) {
    const size_t len = rng() % 5 == 0 ? rng() % 3 : rng() % 24;
    for (size_t i = 0; i < len; ++i) {
      static constexpr uint64_t kDeltas[] = {0, 0, 1, 1, 2, 3, 5, 17};
      script.push_back(kDeltas[rng() % std::size(kDeltas)]);
    }
  }
  return scripts;
}

/// Runs each core through its script, logging (core, now) before every
/// advance and once more as it finishes.
std::vector<Dispatch> run_scripts(Scheduler& s, const Scripts& scripts) {
  std::vector<Dispatch> log;
  s.run([&](int core) {
    for (const uint64_t delta : scripts[static_cast<size_t>(core)]) {
      log.emplace_back(core, s.now(core));
      s.advance(core, delta);
    }
    log.emplace_back(core, s.now(core));
  });
  return log;
}

/// Deterministic pseudo-random candidate index for decision `step`.
size_t random_pick(uint64_t step, size_t n) {
  uint64_t z = step * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E5ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<size_t>((z ^ (z >> 31)) % n);
}

/// Picks random_pick(step) and records every candidate list it is handed.
class RandomPickPolicy : public SchedulePolicy {
 public:
  int pick(const YieldPoint& yp,
           const std::vector<ScheduleCandidate>& cands) override {
    std::vector<Dispatch> list;
    for (const auto& c : cands) list.emplace_back(c.core, c.time);
    seen.push_back(std::move(list));
    return static_cast<int>(random_pick(yp.step, cands.size()));
  }
  std::vector<std::vector<Dispatch>> seen;
};

/// Reference dispatch order over `scripts`. Without `cand_lists` it takes
/// the default pick by linear scan: the lowest (time, id) unfinished core.
/// With it, it applies random_pick(step) to the sorted candidate list, warps
/// the chosen core to the frontier, and records every list.
std::vector<Dispatch> reference_run(
    const Scripts& scripts,
    std::vector<std::vector<Dispatch>>* cand_lists = nullptr) {
  const size_t n = scripts.size();
  std::vector<uint64_t> time(n, 0);
  std::vector<size_t> next(n, 0);
  std::vector<bool> done(n, false);
  std::vector<Dispatch> log;
  uint64_t frontier = 0;
  for (uint64_t step = 0;; ++step) {
    int best = -1;
    if (cand_lists == nullptr) {
      for (size_t c = 0; c < n; ++c) {
        if (!done[c] &&
            (best == -1 || time[c] < time[static_cast<size_t>(best)])) {
          best = static_cast<int>(c);
        }
      }
    } else {
      std::vector<Dispatch> cands;
      for (size_t c = 0; c < n; ++c) {
        if (!done[c]) cands.emplace_back(static_cast<int>(c), time[c]);
      }
      std::sort(cands.begin(), cands.end(),
                [](const Dispatch& a, const Dispatch& b) {
                  return a.second != b.second ? a.second < b.second
                                              : a.first < b.first;
                });
      if (!cands.empty()) {
        best = cands[random_pick(step, cands.size())].first;
        cand_lists->push_back(std::move(cands));
      }
    }
    if (best == -1) return log;
    const size_t c = static_cast<size_t>(best);
    time[c] = std::max(time[c], frontier);
    frontier = time[c];
    log.emplace_back(best, time[c]);
    if (next[c] < scripts[c].size()) {
      time[c] += scripts[c][next[c]++];
    } else {
      done[c] = true;
    }
  }
}

TEST(Scheduler, ReadyQueueMatchesLinearScan) {
  for (const int cores : {1, 2, 7, 64, 256}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << cores << " cores, seed " << seed);
      const Scripts scripts = make_scripts(cores, seed * 1000 + cores);
      Scheduler plain(cores);
      EXPECT_EQ(run_scripts(plain, scripts), reference_run(scripts));

      // A policy picking random indices warps clocks to the frontier; its
      // candidate lists come from the ready queue and must stay sorted.
      Scheduler hooked(cores);
      RandomPickPolicy policy;
      hooked.set_policy(&policy);
      std::vector<std::vector<Dispatch>> want_cands;
      const auto want = reference_run(scripts, &want_cands);
      EXPECT_EQ(run_scripts(hooked, scripts), want);
      EXPECT_EQ(policy.seen, want_cands);
    }
  }
}

TEST(Scheduler, PolicyFailureFallsBackToMinimumTimeOrder) {
  // The policy picks the latest candidate, warping the chosen clocks up to
  // the frontier, and throws from step kFail on. The core whose advance()
  // hit the throw ends; each core after it resumes, logs, and ends at its
  // own next advance(), and every handoff in between comes from the guarded
  // pick_next() fallback in the finishing fiber. So the cores after the
  // failure run once each, by (time, id) over the warped clocks.
  constexpr uint64_t kFail = 6;
  constexpr int kCores = 4;
  std::vector<Dispatch> log;
  class WarpThenFail : public SchedulePolicy {
   public:
    explicit WarpThenFail(const std::vector<Dispatch>& log) : log_(log) {}
    int pick(const YieldPoint& yp,
             const std::vector<ScheduleCandidate>& cands) override {
      if (yp.step >= kFail) {
        if (failed_at == 0) failed_at = log_.size();
        throw std::runtime_error("policy failed");
      }
      warped |= cands.back().time > cands.front().time;
      return static_cast<int>(cands.size()) - 1;
    }
    size_t failed_at = 0;
    bool warped = false;

   private:
    const std::vector<Dispatch>& log_;
  };
  WarpThenFail policy(log);
  Scheduler s(kCores);
  s.set_policy(&policy);
  EXPECT_THROW(s.run([&](int core) {
                 for (int i = 0; i < 6; ++i) {
                   log.emplace_back(core, s.now(core));
                   s.advance(core, static_cast<uint64_t>(1 + 3 * core));
                 }
               }),
               std::runtime_error);
  EXPECT_TRUE(s.failed());
  ASSERT_TRUE(policy.warped) << "no dispatch before the failure warped";
  ASSERT_GT(policy.failed_at, 0u);
  const std::vector<Dispatch> after(
      log.begin() + static_cast<std::ptrdiff_t>(policy.failed_at), log.end());
  ASSERT_EQ(after.size(), static_cast<size_t>(kCores - 1));
  for (size_t i = 1; i < after.size(); ++i) {
    EXPECT_LT(std::make_pair(after[i - 1].second, after[i - 1].first),
              std::make_pair(after[i].second, after[i].first))
        << "fallback dispatch " << i;
  }
}

TEST(Scheduler, FloatingPointControlStateIsPerFiber) {
  // Rounding mode lives in MXCSR (SSE arithmetic) and the x87 control word
  // (fegetround reads the latter); a fiber switch must carry both.
  const auto third = [] {
    volatile double one = 1.0, three = 3.0;
    return one / three;
  };
  const double nearest = third();
  Scheduler s(2);
  int mode_core1 = -1, mode_core0_after = -1;
  double third_core1 = 0, third_core0_after = 0;
  s.run([&](int core) {
    if (core == 0) {
      fesetround(FE_UPWARD);
      s.advance(0, 1);  // core 1 runs at time 0
      mode_core0_after = fegetround();
      third_core0_after = third();
      fesetround(FE_TONEAREST);
    } else {
      mode_core1 = fegetround();
      third_core1 = third();
      s.advance(1, 2);  // core 0 resumes at time 1
    }
  });
  EXPECT_EQ(mode_core1, FE_TONEAREST);
  EXPECT_EQ(third_core1, nearest);
  EXPECT_EQ(mode_core0_after, FE_UPWARD);
  EXPECT_GT(third_core0_after, nearest);
  EXPECT_EQ(fegetround(), FE_TONEAREST);
}

TEST(Scheduler, SnapshotRestoreRebuildsTheReadyQueue) {
  // Parks the run at its k-th checkpoint offer and snapshots it there.
  class OneShot : public CheckpointHook {
   public:
    OneShot(Scheduler& s, int k, const std::vector<Dispatch>& log)
        : s_(s), k_(k), log_(log) {}
    bool wants_checkpoint(uint64_t, int) override { return offers_++ == k_; }
    void on_checkpoint(uint64_t) override {
      snap = s_.snapshot();
      log_size = log_.size();
    }
    Scheduler::Snapshot snap;
    size_t log_size = 0;

   private:
    Scheduler& s_;
    int k_;
    int offers_ = 0;
    const std::vector<Dispatch>& log_;
  };
  constexpr int kCores = 64;
  Scheduler s(kCores);
  std::vector<Dispatch> log;
  OneShot hook(s, 1500, log);
  s.set_checkpoint_hook(&hook);
  s.run([&](int core) {
    for (int i = 0; i < 40; ++i) {
      log.emplace_back(core, s.now(core));
      s.advance(core, static_cast<uint64_t>(1 + (core * 37 + i * 11) % 64));
    }
    log.emplace_back(core, s.now(core));
  });
  ASSERT_GT(hook.log_size, 0u) << "the checkpoint never fired";
  const std::vector<Dispatch> full = log;
  log.resize(hook.log_size);
  s.set_checkpoint_hook(nullptr);
  s.restore(hook.snap);
  s.resume();
  EXPECT_EQ(log, full);
}

/// Recurses `levels` deep; the volatile frame keeps every level real.
int recurse(int levels) {
  volatile char frame[512];
  frame[0] = static_cast<char>(levels);
  return levels == 0 ? 0 : recurse(levels - 1) + frame[0];
}

TEST(SchedulerDeathTest, StackOverflowHitsTheGuardPage) {
  // A fiber stack is 256 KiB over a PROT_NONE guard page. Core 0 recurses
  // ~300 KiB deep and would return normally if the memory below its stack
  // were writable (the stack of core 1, mapped next and already finished,
  // is a likely neighbour), so only the guard page makes this run die.
  EXPECT_DEATH(
      {
        Scheduler s(2);
        s.run([&](int core) {
          if (core != 0) return;
          s.advance(0, 1);  // core 1 runs to completion first
          recurse(600);     // >= 512 bytes a frame
        });
      },
      "");
}

}  // namespace
}  // namespace pmc::sim
