// SchedulePolicy that replays a decision string and records what it saw.
//
// At every scheduling decision the policy applies the next override if its
// step matches, and otherwise picks the min-time default. While running it
// records, for every decision step up to the horizon, how many candidates
// were runnable (and which cores they were), and — up to a fixed window past
// the horizon — which core was dispatched and the shared-memory footprint of
// the segment that just ended. This is exactly the information the Explorer
// needs to enumerate, delay-prune, and partial-order-reduce the children of
// this schedule (DESIGN.md §6/§8) without re-running it. Past its last
// override and its last recorded step the policy declares itself free
// (free_step()): the scheduler runs the rest of the schedule without
// consulting it and hands back the run's total decision count at the end.
#pragma once

#include <cstdint>
#include <vector>

#include "explore/decision.h"
#include "sim/scheduler.h"

namespace pmc::explore {

class ReplayPolicy final : public sim::SchedulePolicy {
 public:
  /// Steps beyond the horizon for which dispatches and segment footprints
  /// are still recorded. A branch candidate's pending segment is the one it
  /// runs at its next default dispatch, which can lie past the horizon; the
  /// window bounds the recording cost, and anything beyond it is reported
  /// as unknown (callers must then assume dependence, never independence).
  static constexpr uint64_t kRecordWindow = 64;

  /// `horizon` bounds the recorded prefix (and thus which steps can branch).
  /// `record_footprints` enables the DPOR recording (candidate/chosen cores
  /// and per-segment footprints); pass false on non-DPOR hot paths — the
  /// scheduler then skips footprint accumulation entirely and this policy
  /// records only what plain enumeration and delay pruning need.
  ReplayPolicy(DecisionString overrides, uint64_t horizon,
               bool record_footprints = true);

  int pick(const sim::YieldPoint& yp,
           const std::vector<sim::ScheduleCandidate>& cands) override;
  bool wants_footprints() const override { return record_; }
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
  /// Core id of candidate `c` at decision step `p`, or -1 when unrecorded.
  /// Candidates are (time, core)-sorted, so index 0 is the default pick.
  int candidate_core(uint64_t p, int c) const {
    if (p >= cand_cores_.size()) return -1;
    const auto& cores = cand_cores_[p];
    if (c < 0 || c >= static_cast<int>(cores.size())) return -1;
    return cores[static_cast<size_t>(c)];
  }
  /// Core dispatched at step `p` (after any override), or -1 when beyond the
  /// recording window.
  int chosen_core(uint64_t p) const {
    return p < chosen_.size() ? chosen_[p] : -1;
  }
  /// Footprint of the segment dispatched at step `p` — established by the
  /// yield that ended it. nullptr when unknown (last segment of the run, or
  /// beyond the recording window): callers must treat unknown as dependent.
  const sim::Footprint* segment_footprint(uint64_t p) const {
    return p < seg_fp_.size() ? &seg_fp_[p] : nullptr;
  }
  /// True when the segment dispatched at step `p` performed no memory-system
  /// effect (pure compute/idle delay) — established by the yield that ended
  /// it. Unknown (last segment / beyond horizon) reports false, so callers
  /// never prune on missing information.
  bool pure_segment(uint64_t p) const {
    return p + 1 < observable_.size() && observable_[p + 1] == 0;
  }
  /// Overrides that never matched a decision step (stale replay string).
  size_t unused_overrides() const { return overrides_.size() - next_; }

  // -- Snapshot-engine support (DESIGN.md §10) -------------------------------

  /// Everything pick() has recorded so far. The policy's mutable state lives
  /// *outside* the machine, so checkpointing engines must capture it at the
  /// same decision step as the Machine snapshot and seed() the next policy
  /// with it — otherwise a resumed run loses the candidate/footprint log of
  /// the shared prefix.
  struct Recording {
    uint64_t steps = 0;
    std::vector<int> cand_count;
    std::vector<uint8_t> observable;
    std::vector<std::vector<int>> cand_cores;
    std::vector<int> chosen;
    std::vector<sim::Footprint> seg_fp;
  };
  /// Captured pre-pick: call while decision `steps` has not executed yet
  /// (e.g. from CheckpointHook::on_checkpoint). Fills `r`, reusing its
  /// buffers.
  void export_recording(Recording& r) const {
    r.steps = steps_;
    r.cand_count = cand_count_;
    r.observable = observable_;
    r.cand_cores = cand_cores_;
    r.chosen = chosen_;
    r.seg_fp = seg_fp_;
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
  uint64_t record_limit_;  // horizon + kRecordWindow
  bool record_;            // DPOR recording on?
  size_t next_ = 0;
  uint64_t steps_ = 0;
  std::vector<int> cand_count_;      // indexed by step, up to horizon
  std::vector<uint8_t> observable_;  // indexed by step, up to horizon + 1
  std::vector<std::vector<int>> cand_cores_;  // indexed by step, up to horizon
  std::vector<int> chosen_;            // indexed by step, up to record_limit_
  std::vector<sim::Footprint> seg_fp_;  // segment dispatched at step p
};

}  // namespace pmc::explore
