#include "explore/stateful.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/check.h"

namespace pmc::explore {

StatefulExecutor::StatefulExecutor(StatefulSpec spec, StatefulOptions opts)
    : spec_(std::move(spec)), opts_(opts) {
  if (opts_.checkpoint_stride < 1) opts_.checkpoint_stride = 1;
}

StatefulExecutor::~StatefulExecutor() = default;

bool StatefulExecutor::ByPrefixThenStep::less(const Key& a, const Key& b) {
  const auto c = std::lexicographical_compare_three_way(
      a.prefix.begin(), a.prefix.end(), b.prefix.begin(), b.prefix.end());
  return c != 0 ? c < 0 : a.step < b.step;
}

StatefulExecutor::Entries::iterator StatefulExecutor::best_entry(
    const DecisionString& overrides) {
  const std::span<const Decision> all(overrides);
  // Prefix j (the first j overrides) is usable at steps in
  // (overrides[j-1].step, overrides[j].step]; deeper prefixes park deeper.
  for (size_t j = all.size() + 1; j-- > 0;) {
    const uint64_t hi = j < all.size() ? all[j].step : UINT64_MAX;
    auto it = index_.upper_bound(Key{all.first(j), hi});
    if (it == index_.begin()) continue;
    const Entries::iterator e = *--it;
    if (std::ranges::equal(e->prefix, all.first(j)) &&
        (j == 0 || e->step > all[j - 1].step)) {
      return e;
    }
  }
  PMC_CHECK_MSG(false, "snapshot pool lost its pinned root entry");
  return {};
}

void StatefulExecutor::touch(Entries::iterator e) {
  if (e->step != 0) lru_.splice(lru_.end(), lru_, e);
}

bool StatefulExecutor::wants_checkpoint(uint64_t step, int runnable_cores) {
  // No offered step already has an entry. A forked run is offered only
  // steps past its fork, and an entry parked there under this run's prefix
  // would have been a deeper usable entry than the fork; a run from scratch
  // starts with an empty pool. So the root is captured once, and a step
  // passing the tests below is captured without a lookup.
  if (current_policy_ == nullptr) return false;
  if (step == 0) return true;               // the pinned root
  if (runnable_cores < 2) return false;     // no branch can start here
  if (step >= opts_.horizon) return false;  // beyond-horizon steps never branch
  return step % opts_.checkpoint_stride == 0;
}

void StatefulExecutor::on_checkpoint(uint64_t step) {
  ++stats_.snapshots_taken;
  // Capacity 0 keeps no mid-run entry: the capture counts as one evicted
  // at once, so it is not made.
  if (step != 0 && opts_.pool_capacity == 0) return;
  Entries::iterator e;
  decltype(index_)::node_type node;
  if (step == 0) {
    e = root_.emplace(root_.end());
  } else if (lru_.size() == opts_.pool_capacity) {
    // Evict the least recently used entry and capture into its buffers
    // and its index node.
    e = lru_.begin();
    node = index_.extract(e);
    lru_.splice(lru_.end(), lru_, e);
  } else {
    e = lru_.emplace(lru_.end());
  }
  e->step = step;
  e->prefix.clear();
  for (const Decision& d : current_policy_->overrides()) {
    if (d.step >= step) break;
    e->prefix.push_back(d);
  }
  prog_->snapshot(e->snap);
  current_policy_->export_recording(e->rec);
  const bool inserted = node ? index_.insert(std::move(node)).inserted
                             : index_.insert(e).second;
  PMC_CHECK_MSG(inserted, "snapshot pool captured step " << step << " twice");
}

std::vector<StatefulExecutor::PoolKey> StatefulExecutor::pool_keys() const {
  std::vector<PoolKey> keys;
  for (const PoolEntry& e : lru_) keys.push_back({e.step, e.prefix});
  return keys;
}

RunOutcome StatefulExecutor::run(ReplayPolicy& policy) {
  RunOutcome out;
  current_policy_ = &policy;
  try {
    if (prog_ == nullptr || root_.empty()) {
      // First schedule — or a prior first schedule died before the root
      // checkpoint (program construction / setup failure): build the world
      // afresh, exactly like stateless replay would.
      last_fork_step_.reset();
      prog_.reset();
      rt::ProgramOptions opts = spec_.opts;
      opts.schedule_policy = &policy;
      prog_ = std::make_unique<rt::Program>(opts);
      prog_->set_checkpoint_hook(this);
      prog_->set_trace_memo(&memo_);
      spec_.setup(*prog_);
      prog_->run(spec_.body);
    } else {
      const Entries::iterator e = best_entry(policy.overrides());
      if (e->step == 0) {
        ++stats_.pool_misses;
      } else {
        ++stats_.pool_hits;
      }
      last_fork_step_ = e->step;
      touch(e);
      policy.seed(e->rec);
      prog_->restore(e->snap);
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
