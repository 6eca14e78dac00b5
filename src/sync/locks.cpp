#include "sync/locks.h"

#include "util/check.h"

namespace pmc::sync {

namespace {
constexpr uint32_t kLockStride = 64;  // one SDRAM word per lock, line-separated
constexpr uint32_t kLmPerLock = 8;    // {grant, next} words per lock per tile

/// Records a lock-op slice [t0, core.now()] when tracing (DESIGN.md §11);
/// aux carries the lock id.
void trace_op(sim::Machine& m, sim::Core& core, obs::EventKind kind,
              uint64_t t0, int lock) {
  if (!m.tracing()) return;
  obs::TraceEvent e;
  e.kind = kind;
  e.core = static_cast<int16_t>(core.id());
  e.aux = static_cast<uint16_t>(lock);
  e.t0 = t0;
  e.t1 = core.now();
  m.trace_recorder()->record(e);
}
}  // namespace

// ---------------------------------------------------------------------------
// SpinLockManager
// ---------------------------------------------------------------------------

SpinLockManager::SpinLockManager(sim::Machine& m, sim::Addr sdram_area,
                                 uint32_t area_bytes)
    : m_(m), area_(sdram_area), capacity_(area_bytes / kLockStride) {
  PMC_CHECK(m_.sdram().contains(sdram_area, area_bytes));
}

sim::Addr SpinLockManager::word(int lock) const {
  PMC_CHECK(lock >= 0 && lock < num_locks_);
  return area_ + static_cast<sim::Addr>(lock) * kLockStride;
}

int SpinLockManager::create() {
  PMC_CHECK_MSG(num_locks_ < static_cast<int>(capacity_),
                "lock area exhausted");
  prev_holder_.push_back(-1);
  last_owner_.push_back(-1);
  current_holder_.push_back(-1);
  return num_locks_++;
}

void SpinLockManager::acquire(sim::Core& core, int lock) {
  PMC_CHECK_MSG(current_holder_[lock] != core.id(), "lock is not reentrant");
  const uint64_t t0 = core.now();
  uint32_t backoff = 4;
  // Remote test-and-set until the word was free: every poll is an
  // atomic-unit round trip — the cost the distributed lock avoids.
  while (core.atomic_swap(word(lock), 1) != 0) {
    core.idle(backoff);
    backoff = backoff < 512 ? backoff * 2 : 512;
  }
  prev_holder_[lock] = last_owner_[lock];
  last_owner_[lock] = core.id();
  current_holder_[lock] = core.id();
  trace_op(m_, core, obs::EventKind::kLockAcquire, t0, lock);
}

void SpinLockManager::release(sim::Core& core, int lock) {
  PMC_CHECK_MSG(current_holder_[lock] == core.id(),
                "release by core " << core.id() << " of a lock held by "
                                   << current_holder_[lock]);
  const uint64_t t0 = core.now();
  current_holder_[lock] = -1;
  core.store_u32(word(lock), 0, sim::MemClass::kSync);
  trace_op(m_, core, obs::EventKind::kLockRelease, t0, lock);
}

// ---------------------------------------------------------------------------
// DistLockManager
// ---------------------------------------------------------------------------

DistLockManager::DistLockManager(sim::Machine& m, sim::Addr sdram_area,
                                 uint32_t area_bytes, uint32_t lm_offset,
                                 uint32_t lm_bytes)
    : m_(m),
      area_(sdram_area),
      capacity_(area_bytes / kLockStride),
      lm_offset_(lm_offset),
      lm_capacity_(lm_bytes / kLmPerLock) {
  PMC_CHECK(m_.sdram().contains(sdram_area, area_bytes));
  PMC_CHECK(lm_offset + lm_bytes <= m_.config().lm_bytes);
}

sim::Addr DistLockManager::tail_word(int lock) const {
  PMC_CHECK(lock >= 0 && lock < num_locks_);
  return area_ + static_cast<sim::Addr>(lock) * kLockStride;
}

sim::Addr DistLockManager::grant_addr(int core, int lock) const {
  return m_.lm_base(core) + lm_offset_ +
         static_cast<sim::Addr>(lock) * kLmPerLock;
}

sim::Addr DistLockManager::next_addr(int core, int lock) const {
  return grant_addr(core, lock) + 4;
}

int DistLockManager::create() {
  PMC_CHECK_MSG(num_locks_ < static_cast<int>(capacity_) &&
                    num_locks_ < static_cast<int>(lm_capacity_),
                "lock area exhausted");
  prev_holder_.push_back(-1);
  last_owner_.push_back(-1);
  current_holder_.push_back(-1);
  return num_locks_++;
}

void DistLockManager::acquire(sim::Core& core, int lock) {
  const int me = core.id();
  PMC_CHECK_MSG(current_holder_[lock] != me, "lock is not reentrant");
  const uint64_t t0 = core.now();
  // Swap ourselves in as the queue tail: one atomic, contended or not.
  const uint32_t prev = core.atomic_swap(tail_word(lock), me + 1);
  if (prev != 0) {
    // Link behind the previous tail, then spin on our *local* grant flag —
    // polling never leaves the tile (the asymmetric property of ref. [15]).
    const uint32_t link = static_cast<uint32_t>(me + 1);
    core.remote_write(static_cast<int>(prev) - 1,
                      next_addr(static_cast<int>(prev) - 1, lock), &link, 4);
    const sim::Addr g = grant_addr(me, lock);
    core.poll_u32(g, sim::MemClass::kSync, [](uint32_t v) { return v == 1; });
    core.store_u32(g, 0, sim::MemClass::kSync);  // consume the grant
  }
  prev_holder_[lock] = last_owner_[lock];
  last_owner_[lock] = me;
  current_holder_[lock] = me;
  trace_op(m_, core, obs::EventKind::kLockAcquire, t0, lock);
}

void DistLockManager::release(sim::Core& core, int lock) {
  const int me = core.id();
  PMC_CHECK_MSG(current_holder_[lock] == me,
                "release by core " << me << " of a lock held by "
                                   << current_holder_[lock]);
  const uint64_t t0 = core.now();
  current_holder_[lock] = -1;
  const sim::Addr n = next_addr(me, lock);
  uint32_t nx = core.load_u32(n, sim::MemClass::kSync);
  if (nx == 0) {
    // Nobody visibly queued: try to close the queue.
    if (core.atomic_cas(tail_word(lock), static_cast<uint32_t>(me + 1), 0) ==
        static_cast<uint32_t>(me + 1)) {
      trace_op(m_, core, obs::EventKind::kLockRelease, t0, lock);
      return;
    }
    // A requester swapped in; its link write is in flight to our local
    // memory. Wait for it locally.
    nx = core.poll_u32(n, sim::MemClass::kSync,
                       [](uint32_t v) { return v != 0; });
  }
  core.store_u32(n, 0, sim::MemClass::kSync);  // reset for our next round
  // Hand over with a single write into the successor's local memory.
  const uint32_t one = 1;
  core.remote_write(static_cast<int>(nx) - 1,
                    grant_addr(static_cast<int>(nx) - 1, lock), &one, 4);
  ++handoffs_;
  trace_op(m_, core, obs::EventKind::kLockRelease, t0, lock);
}

void SpinLockManager::register_state(sim::Machine& m) {
  if (num_locks_ == 0) return;
  m.register_state(prev_holder_.data(), prev_holder_.size() * sizeof(int));
  m.register_state(last_owner_.data(), last_owner_.size() * sizeof(int));
  m.register_state(current_holder_.data(),
                   current_holder_.size() * sizeof(int));
}

void DistLockManager::register_state(sim::Machine& m) {
  m.register_state(&handoffs_, sizeof(handoffs_));
  if (num_locks_ == 0) return;
  m.register_state(prev_holder_.data(), prev_holder_.size() * sizeof(int));
  m.register_state(last_owner_.data(), last_owner_.size() * sizeof(int));
  m.register_state(current_holder_.data(),
                   current_holder_.size() * sizeof(int));
}

}  // namespace pmc::sync
