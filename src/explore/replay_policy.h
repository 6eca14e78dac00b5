// SchedulePolicy that replays a decision string and records what it saw.
//
// At every scheduling decision the policy applies the next override if its
// step matches, and otherwise picks the min-time default. While running it
// records, for every decision step below the horizon, how many candidates
// were runnable. This is exactly the information the Explorer needs to
// enumerate the children of this schedule (DESIGN.md §6) without re-running
// it. Past its last override and its last recorded step the
// policy declares itself free (free_step()): the scheduler runs the rest of
// the schedule without consulting it and hands back the run's total
// decision count at the end.
#pragma once

#include <cstdint>
#include <vector>

#include "explore/decision.h"
#include "sim/scheduler.h"

namespace pmc::explore {

class ReplayPolicy final : public sim::SchedulePolicy {
 public:
  /// `horizon` bounds the recorded prefix (and thus which steps can branch).
  ReplayPolicy(DecisionString overrides, uint64_t horizon);

  int pick(const sim::YieldPoint& yp,
           const std::vector<sim::ScheduleCandidate>& cands) override;
  /// One past the last step that applies an override or records anything.
  uint64_t free_step() const override;
  void on_run_end(uint64_t decisions) override;

  // -- Post-run observations --------------------------------------------------
  /// Total scheduling decisions the run took, those past the free step
  /// included.
  uint64_t decision_points() const { return steps_; }
  /// Candidate count at decision step `p` (recorded steps only, p < horizon).
  int candidates_at(uint64_t p) const {
    return p < cand_count_.size() ? cand_count_[p] : 0;
  }
  /// Overrides that never matched a decision step (stale replay string).
  size_t unused_overrides() const { return overrides_.size() - next_; }

  // -- Snapshot-engine support (DESIGN.md §10) -------------------------------

  /// Everything pick() has recorded so far. The policy's mutable state lives
  /// *outside* the machine, so checkpointing engines must capture it at the
  /// same decision step as the Machine snapshot and seed() the next policy
  /// with it — otherwise a resumed run loses the candidate log of the shared
  /// prefix.
  struct Recording {
    uint64_t steps = 0;
    std::vector<int> cand_count;
  };
  /// Captured pre-pick: call while decision `steps` has not executed yet
  /// (e.g. from CheckpointHook::on_checkpoint). Fills `r`, reusing its
  /// buffers.
  void export_recording(Recording& r) const {
    r.steps = steps_;
    r.cand_count = cand_count_;
  }
  Recording export_recording() const {
    Recording r;
    export_recording(r);
    return r;
  }
  /// Seeds a fresh policy with a prefix recording before its run resumes
  /// mid-schedule. Overrides with step < recording.steps are skipped — those
  /// decisions already happened inside the restored machine state.
  void seed(const Recording& r);
  const DecisionString& overrides() const { return overrides_; }

 private:
  DecisionString overrides_;
  uint64_t horizon_;
  size_t next_ = 0;
  uint64_t steps_ = 0;
  std::vector<int> cand_count_;  // indexed by step, up to horizon
};

}  // namespace pmc::explore
