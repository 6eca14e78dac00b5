// Stateful schedule execution: fork schedules from machine snapshots
// instead of replaying their decision prefix from scratch (DESIGN.md §10).
//
// A StatefulExecutor owns one persistent Program built from a StatefulSpec.
// The first schedule executes normally under checkpointing fibers; the
// executor's CheckpointHook captures (Program::Snapshot, ReplayPolicy::
// Recording) pairs at decision points into a bounded pool. Every later
// schedule restores the deepest pool entry whose captured decision prefix
// matches its own overrides and resumes from there — the pinned root
// snapshot (step 0, empty prefix) guarantees a usable entry always exists,
// and restoring the root is the stateless engine's "build a fresh program"
// semantics minus the construction cost. Execution inside a schedule is
// unchanged, so run outcomes — and with them every explorer total and every
// CheckReport byte — are identical to stateless replay's. The executor also
// judges each distinct exact trace once: its Program consults an
// rt::TraceMemo of Definition 12 verdicts and hb hashes before validating.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "explore/check.h"
#include "explore/explorer.h"
#include "explore/replay_policy.h"
#include "runtime/program.h"

namespace pmc::explore {

struct StatefulOptions {
  /// Checkpoint every stride-th decision step below the horizon (step 0,
  /// the root, is always checkpointed). Clamped to >= 1. Stride 8 is the
  /// measured sweet spot on the litmus grid (DESIGN.md §10): a capture
  /// costs about as much as a restore, halving the stride doubles the
  /// captures, and doubling it forks from shallower entries.
  uint64_t checkpoint_stride = 8;
  /// Decision steps at or above the horizon never branch, so they are
  /// never worth checkpointing.
  uint64_t horizon = 24;
  /// Non-root pool entries kept; least-recently-used entries are evicted
  /// past this. 0 keeps only the pinned root — every schedule then re-runs
  /// from step 0 (the eviction-pressure fallback the tests exercise).
  size_t pool_capacity = 128;
};

struct StatefulStats {
  uint64_t snapshots_taken = 0;
  uint64_t pool_hits = 0;    // schedules forked from a mid-run snapshot
  uint64_t pool_misses = 0;  // schedules restarted from the root snapshot
  uint64_t judge_memo_hits = 0;    // runs whose exact trace was judged before
  uint64_t judge_memo_misses = 0;  // runs validated afresh
};

/// One worker's stateful schedule runner; a drop-in for the ScheduleRunner
/// a CheckTarget::run-based closure provides. Not thread-safe — parallel
/// exploration builds one executor per worker thread, each with its own
/// Program and pool.
class StatefulExecutor final : public sim::CheckpointHook {
 public:
  StatefulExecutor(StatefulSpec spec, StatefulOptions opts);
  ~StatefulExecutor() override;

  /// Executes one schedule under `policy`, converting exceptions into
  /// failing outcomes exactly like CheckTarget::run.
  RunOutcome run(ReplayPolicy& policy);

  /// Explorer adapter. Borrows `this`: the executor must outlive it.
  ScheduleRunner runner() {
    return [this](ReplayPolicy& p) { return run(p); };
  }

  const StatefulStats& stats() const { return stats_; }

  /// A pool entry's key: the decision step it is parked at and the
  /// overrides with smaller steps it was captured under.
  struct PoolKey {
    uint64_t step = 0;
    DecisionString prefix;
  };
  /// The non-root entries, least recently used first (for tests).
  std::vector<PoolKey> pool_keys() const;
  /// The step of the entry the last run() forked from; nullopt when it
  /// built the program afresh. The entry's prefix is that run's overrides
  /// below the step.
  std::optional<uint64_t> last_fork_step() const { return last_fork_step_; }

  // sim::CheckpointHook — called by the scheduler mid-run.
  bool wants_checkpoint(uint64_t step, int runnable_cores) override;
  void on_checkpoint(uint64_t step) override;
  /// Steps at or past the horizon are never captured (the root always is).
  uint64_t free_step() const override {
    return std::max<uint64_t>(opts_.horizon, 1);
  }

 private:
  struct PoolEntry {
    uint64_t step = 0;      // decision step the snapshot is parked at
    DecisionString prefix;  // overrides with .step < step at capture time
    rt::Program::Snapshot snap;
    ReplayPolicy::Recording rec;
  };
  /// Entries in LRU order, least recently used first. The pinned root
  /// lives in a list of its own, so its iterator has the same type.
  using Entries = std::list<PoolEntry>;
  /// Orders entries by (prefix, step), so each prefix's entries are
  /// adjacent and sorted by step. Transparent: a lookup passes a view of
  /// the schedule's own overrides and allocates nothing.
  struct ByPrefixThenStep {
    using is_transparent = void;
    struct Key {
      std::span<const Decision> prefix;
      uint64_t step;
    };
    static Key key(const Key& k) { return k; }
    static Key key(const Entries::iterator& e) { return {e->prefix, e->step}; }
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      return less(key(a), key(b));
    }
    static bool less(const Key& a, const Key& b);
  };
  using Key = ByPrefixThenStep::Key;

  /// The deepest entry usable by a schedule with these overrides (the
  /// pinned root in the worst case). An entry is usable exactly when its
  /// prefix equals the overrides restricted to steps below its step, so
  /// only the k + 1 prefixes of k overrides can match: each is one
  /// upper_bound.
  Entries::iterator best_entry(const DecisionString& overrides);
  /// Moves a non-root entry to the most-recently-used end.
  void touch(Entries::iterator e);

  StatefulSpec spec_;
  StatefulOptions opts_;
  /// Outlives every Program the executor builds: a rebuild keeps the
  /// spec, hence the (cores, objects) shape the memo is valid for.
  rt::TraceMemo memo_;
  std::unique_ptr<rt::Program> prog_;
  Entries root_;  // empty until the first run reaches step 0
  Entries lru_;   // at most pool_capacity entries
  std::set<Entries::iterator, ByPrefixThenStep> index_;  // root_ and lru_
  ReplayPolicy* current_policy_ = nullptr;  // only during run()
  std::optional<uint64_t> last_fork_step_;
  StatefulStats stats_;
};

}  // namespace pmc::explore
