#include "sync/barrier.h"

#include "util/check.h"

namespace pmc::sync {

Barrier::Barrier(sim::Machine& m, sim::Addr count_word, uint32_t lm_flag_offset)
    : m_(m), count_(count_word), lm_flag_offset_(lm_flag_offset) {
  PMC_CHECK(m_.sdram().contains(count_word, 4));
  PMC_CHECK(lm_flag_offset + 4 <= m_.config().lm_bytes);
  epoch_.assign(static_cast<size_t>(m_.num_cores()), 0);
}

void Barrier::wait(sim::Core& core) {
  const int me = core.id();
  const int n = core.num_cores();
  const uint64_t t0 = core.now();
  const uint32_t sense = (++epoch_[me]) & 1;
  const uint32_t arrived = core.atomic_add(count_, 1);
  PMC_CHECK(arrived < static_cast<uint32_t>(n));
  if (arrived == static_cast<uint32_t>(n) - 1) {
    // Last one in: reset the counter, then release everyone through their
    // local memories (fast local spinning for the waiters).
    core.atomic_swap(count_, 0);
    for (int t = 0; t < n; ++t) {
      if (t == me) continue;
      core.remote_write(t, m_.lm_base(t) + lm_flag_offset_, &sense, 4);
    }
    core.store_u32(m_.lm_base(me) + lm_flag_offset_, sense,
                   sim::MemClass::kSync);
    ++rounds_;
  } else {
    const sim::Addr flag = m_.lm_base(me) + lm_flag_offset_;
    // Coarse backoff: barrier waits can span long phases, and the local
    // flag costs nothing to leave unpolled.
    core.poll_u32(
        flag, sim::MemClass::kSync,
        [sense](uint32_t v) { return v == sense; },
        /*backoff_start=*/8, /*backoff_max=*/4096);
  }
  if (m_.tracing()) {
    // One slice spanning arrival to release (DESIGN.md §11); aux = epoch.
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBarrier;
    e.core = static_cast<int16_t>(me);
    e.aux = static_cast<uint16_t>(epoch_[me]);
    e.t0 = t0;
    e.t1 = core.now();
    m_.trace_recorder()->record(e);
  }
}

void Barrier::register_state(sim::Machine& m) {
  m.register_state(epoch_.data(), epoch_.size() * sizeof(uint32_t));
  m.register_state(&rounds_, sizeof(rounds_));
}

}  // namespace pmc::sync
