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
// CheckReport byte — are identical to the replay engine's.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "explore/check.h"
#include "explore/explorer.h"
#include "explore/replay_policy.h"
#include "runtime/program.h"

namespace pmc::explore {

struct StatefulOptions {
  /// Checkpoint every stride-th decision step below the horizon (step 0,
  /// the root, is always checkpointed). Clamped to >= 1; see
  /// SessionOptions::snapshot_stride for the default's rationale.
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

  // sim::CheckpointHook — called by the scheduler mid-run.
  bool wants_checkpoint(uint64_t step, int runnable_cores) override;
  void on_checkpoint(uint64_t step) override;

 private:
  struct PoolEntry;

  /// True when `e`'s captured prefix equals the overrides of the current
  /// schedule restricted to steps below e->step — the exact condition for
  /// the snapshot to be a state of that schedule's own execution.
  static bool usable(const PoolEntry& e, const DecisionString& overrides);
  /// The deepest usable entry (the pinned root in the worst case).
  PoolEntry& best_entry(const DecisionString& overrides);
  /// True when a usable entry parked at exactly `step` already exists
  /// (refreshes its LRU stamp — an entry proven hot is worth keeping).
  bool have_entry_at(uint64_t step);
  void evict();

  StatefulSpec spec_;
  StatefulOptions opts_;
  std::unique_ptr<rt::Program> prog_;
  std::vector<std::unique_ptr<PoolEntry>> pool_;
  ReplayPolicy* current_policy_ = nullptr;  // only during run()
  uint64_t lru_clock_ = 0;
  StatefulStats stats_;
};

}  // namespace pmc::explore
