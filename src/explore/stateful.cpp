#include "explore/stateful.h"

#include <exception>
#include <utility>

#include "util/check.h"

namespace pmc::explore {

struct StatefulExecutor::PoolEntry {
  uint64_t step = 0;      // decision step the snapshot is parked at
  DecisionString prefix;  // overrides with .step < step at capture time
  rt::Program::Snapshot snap;
  ReplayPolicy::Recording rec;
  uint64_t lru = 0;
};

StatefulExecutor::StatefulExecutor(StatefulSpec spec, StatefulOptions opts)
    : spec_(std::move(spec)), opts_(opts) {
  if (opts_.checkpoint_stride < 1) opts_.checkpoint_stride = 1;
}

StatefulExecutor::~StatefulExecutor() = default;

bool StatefulExecutor::usable(const PoolEntry& e,
                              const DecisionString& overrides) {
  size_t i = 0;
  for (const Decision& d : overrides) {
    if (d.step >= e.step) break;  // overrides are strictly step-increasing
    if (i >= e.prefix.size() || !(e.prefix[i] == d)) return false;
    ++i;
  }
  return i == e.prefix.size();
}

StatefulExecutor::PoolEntry& StatefulExecutor::best_entry(
    const DecisionString& overrides) {
  PoolEntry* best = nullptr;
  for (const auto& e : pool_) {
    if (best != nullptr && e->step <= best->step) continue;
    if (usable(*e, overrides)) best = e.get();
  }
  PMC_CHECK_MSG(best != nullptr, "snapshot pool lost its pinned root entry");
  return *best;
}

bool StatefulExecutor::have_entry_at(uint64_t step) {
  for (const auto& e : pool_) {
    if (e->step == step && usable(*e, current_policy_->overrides())) {
      e->lru = ++lru_clock_;
      return true;
    }
  }
  return false;
}

bool StatefulExecutor::wants_checkpoint(uint64_t step, int runnable_cores) {
  if (current_policy_ == nullptr) return false;
  if (step == 0) return !have_entry_at(0);  // the pinned root, captured once
  if (runnable_cores < 2) return false;     // no branch can start here
  if (step >= opts_.horizon) return false;  // beyond-horizon steps never branch
  if (step % opts_.checkpoint_stride != 0) return false;
  // Re-runs over a shared prefix would re-capture identical state: the
  // execution is bit-deterministic in the sub-step overrides, which is the
  // pool key. Dedup instead (and keep the proven-hot entry resident).
  return !have_entry_at(step);
}

void StatefulExecutor::on_checkpoint(uint64_t step) {
  auto e = std::make_unique<PoolEntry>();
  e->step = step;
  for (const Decision& d : current_policy_->overrides()) {
    if (d.step >= step) break;
    e->prefix.push_back(d);
  }
  e->snap = prog_->snapshot();
  e->rec = current_policy_->export_recording();
  e->lru = ++lru_clock_;
  pool_.push_back(std::move(e));
  ++stats_.snapshots_taken;
  evict();
}

void StatefulExecutor::evict() {
  size_t live = 0;
  for (const auto& e : pool_) live += e->step != 0 ? 1 : 0;
  while (live > opts_.pool_capacity) {
    size_t victim = pool_.size();
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i]->step == 0) continue;  // the root is pinned
      if (victim == pool_.size() || pool_[i]->lru < pool_[victim]->lru) {
        victim = i;
      }
    }
    pool_.erase(pool_.begin() + static_cast<ptrdiff_t>(victim));
    --live;
  }
}

RunOutcome StatefulExecutor::run(ReplayPolicy& policy) {
  RunOutcome out;
  current_policy_ = &policy;
  try {
    if (prog_ == nullptr || pool_.empty()) {
      // First schedule — or a prior first schedule died before the root
      // checkpoint (program construction / setup failure): build the world
      // afresh, exactly like stateless replay would.
      prog_.reset();
      rt::ProgramOptions opts = spec_.opts;
      opts.schedule_policy = &policy;
      prog_ = std::make_unique<rt::Program>(opts);
      prog_->set_checkpoint_hook(this);
      prog_->set_trace_memo(&memo_);
      spec_.setup(*prog_);
      prog_->run(spec_.body);
    } else {
      PoolEntry& e = best_entry(policy.overrides());
      if (e.step == 0) {
        ++stats_.pool_misses;
      } else {
        ++stats_.pool_hits;
      }
      e.lru = ++lru_clock_;
      policy.seed(e.rec);
      prog_->restore(e.snap);
      prog_->set_schedule_policy(&policy);
      prog_->resume();
    }
    judge_run(spec_, *prog_, out);
  } catch (const std::exception& ex) {
    out.ok = false;
    out.message = ex.what();
  }
  stats_.judge_memo_hits = memo_.hits();
  stats_.judge_memo_misses = memo_.misses();
  current_policy_ = nullptr;
  return out;
}

}  // namespace pmc::explore
