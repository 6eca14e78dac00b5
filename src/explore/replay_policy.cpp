#include "explore/replay_policy.h"

#include <algorithm>

#include "util/check.h"

namespace pmc::explore {

ReplayPolicy::ReplayPolicy(DecisionString overrides, uint64_t horizon)
    : overrides_(std::move(overrides)), horizon_(horizon) {
  for (size_t i = 1; i < overrides_.size(); ++i) {
    PMC_CHECK_MSG(overrides_[i - 1].step < overrides_[i].step,
                  "replay overrides must have strictly increasing steps");
  }
}

int ReplayPolicy::pick(const sim::YieldPoint& yp,
                       const std::vector<sim::ScheduleCandidate>& cands) {
  PMC_CHECK_MSG(yp.step == steps_, "scheduler decisions arrived out of order");
  steps_ = yp.step + 1;
  if (yp.step < horizon_) {
    cand_count_.push_back(static_cast<int>(cands.size()));
  }
  int choice = 0;
  if (next_ < overrides_.size() && overrides_[next_].step == yp.step) {
    choice = overrides_[next_].choice;
    PMC_CHECK_MSG(
        choice >= 1 && choice < static_cast<int>(cands.size()),
        "replay decision " << overrides_[next_].step << ":" << choice
                           << " does not match this program (only "
                           << cands.size() << " runnable cores at that step)");
    ++next_;
  }
  return choice;
}

uint64_t ReplayPolicy::free_step() const {
  // pick() records candidates below the horizon only.
  uint64_t free = horizon_;
  if (!overrides_.empty()) free = std::max(free, overrides_.back().step + 1);
  return free;
}

void ReplayPolicy::on_run_end(uint64_t decisions) {
  PMC_CHECK_MSG(decisions >= steps_, "the scheduler lost decision points");
  steps_ = decisions;
}

void ReplayPolicy::seed(const Recording& r) {
  PMC_CHECK_MSG(steps_ == 0, "seed() on a policy that already ran");
  steps_ = r.steps;
  cand_count_ = r.cand_count;
  next_ = 0;
  while (next_ < overrides_.size() && overrides_[next_].step < steps_) {
    ++next_;
  }
}

}  // namespace pmc::explore
