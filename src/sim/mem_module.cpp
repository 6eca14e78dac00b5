#include "sim/mem_module.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/hash.h"

namespace pmc::sim {

MemModule::MemModule(std::string name, Addr base, size_t size)
    : name_(std::move(name)), base_(base), store_(size, 0) {
  PMC_CHECK(size > 0);
  touched_.assign((size + kPageBytes - 1) / kPageBytes, 0);
}

void MemModule::mark_write(Addr a, size_t n) {
  // A zero-length write dirties nothing; without this guard it would still
  // mark the page holding `a`, inflating Snapshot::pages and churning
  // restore() with pages whose bytes never changed.
  if (n == 0) return;
  const uint32_t first = (a - base_) / kPageBytes;
  const uint32_t last = (a - base_ + static_cast<Addr>(n - 1)) / kPageBytes;
  for (uint32_t p = first; p <= last; ++p) {
    if (!touched_[p]) {
      touched_[p] = 1;
      touched_list_.push_back(p);
    }
  }
}

uint8_t* MemModule::at(Addr a, size_t n) {
  PMC_CHECK_MSG(contains(a, n), name_ << ": access [" << a << ", " << a + n
                                      << ") outside [" << base_ << ", "
                                      << base_ + store_.size() << ")");
  return store_.data() + (a - base_);
}

void MemModule::apply_pending(uint64_t t) {
  while (!pending_.empty() && pending_.top().arrival <= t) {
    const Pending& p = pending_.top();
    // An empty payload's data() may be null, which memcpy must never see.
    if (!p.data.empty()) {
      std::memcpy(at(p.addr, p.data.size()), p.data.data(), p.data.size());
    }
    mark_write(p.addr, p.data.size());
    pending_.pop();
  }
}

void MemModule::read(uint64_t t, Addr a, void* out, size_t n) {
  apply_pending(t);
  std::memcpy(out, at(a, n), n);
}

void MemModule::write(uint64_t t, Addr a, const void* data, size_t n) {
  apply_pending(t);
  std::memcpy(at(a, n), data, n);
  mark_write(a, n);
}

void MemModule::post_write(uint64_t arrival, Addr a, const void* data,
                           size_t n) {
  PMC_CHECK(contains(a, n));
  Pending p;
  p.arrival = arrival;
  p.seq = next_seq_++;
  p.addr = a;
  p.data.assign(static_cast<const uint8_t*>(data),
                static_cast<const uint8_t*>(data) + n);
  pending_.push(std::move(p));
  if (watcher_ != nullptr && a < watch_addr_ + watch_len_ &&
      watch_addr_ < a + n) {
    watcher_->on_watched_post(arrival);
  }
}

uint64_t MemModule::first_pending_arrival(Addr a, size_t n) const {
  uint64_t first = UINT64_MAX;
  for (const Pending& p : pending_.items()) {
    if (p.addr < a + n && a < p.addr + p.data.size()) {
      first = std::min(first, p.arrival);
    }
  }
  return first;
}

uint32_t MemModule::atomic_swap_u32(uint64_t t, Addr a, uint32_t value) {
  apply_pending(t);
  uint32_t old;
  std::memcpy(&old, at(a, 4), 4);
  std::memcpy(at(a, 4), &value, 4);
  mark_write(a, 4);
  return old;
}

uint32_t MemModule::atomic_add_u32(uint64_t t, Addr a, uint32_t delta) {
  apply_pending(t);
  uint32_t old;
  std::memcpy(&old, at(a, 4), 4);
  const uint32_t neu = old + delta;
  std::memcpy(at(a, 4), &neu, 4);
  mark_write(a, 4);
  return old;
}

uint32_t MemModule::atomic_cas_u32(uint64_t t, Addr a, uint32_t expected,
                                   uint32_t desired) {
  apply_pending(t);
  uint32_t old;
  std::memcpy(&old, at(a, 4), 4);
  if (old == expected) {
    std::memcpy(at(a, 4), &desired, 4);
    mark_write(a, 4);
  }
  return old;
}

uint64_t MemModule::reserve_port(uint64_t earliest, uint64_t occupancy) {
  const uint64_t start = std::max(earliest, port_free_);
  port_free_ = start + occupancy;
  ++port_stats_.reservations;
  port_stats_.wait_cycles += start - earliest;
  port_stats_.busy_cycles += occupancy;
  port_stats_.wait_hist.observe(static_cast<double>(start - earliest));
  return start;
}

void MemModule::drain_all() { apply_pending(UINT64_MAX); }

uint64_t MemModule::content_hash() const {
  return util::fnv1a(store_.data(), store_.size());
}

MemModule::Snapshot MemModule::snapshot() const {
  Snapshot s;
  s.pages = touched_list_;
  s.page_bytes.resize(s.pages.size() * kPageBytes);
  for (size_t i = 0; i < s.pages.size(); ++i) {
    const size_t off = static_cast<size_t>(s.pages[i]) * kPageBytes;
    const size_t n = std::min<size_t>(kPageBytes, store_.size() - off);
    std::memcpy(s.page_bytes.data() + i * kPageBytes, store_.data() + off, n);
  }
  s.pending = pending_;
  s.next_seq = next_seq_;
  s.port_free = port_free_;
  s.port_stats = port_stats_;
  return s;
}

void MemModule::restore(const Snapshot& s) {
  // Zero-then-apply: the current dirty set may differ from the snapshot's
  // (other DFS branches ran since), so first return every currently-dirty
  // page to its initial all-zero state, then lay down the saved pages.
  for (const uint32_t p : touched_list_) {
    const size_t off = static_cast<size_t>(p) * kPageBytes;
    std::memset(store_.data() + off,
                0, std::min<size_t>(kPageBytes, store_.size() - off));
    touched_[p] = 0;
  }
  touched_list_.clear();
  for (size_t i = 0; i < s.pages.size(); ++i) {
    const uint32_t p = s.pages[i];
    const size_t off = static_cast<size_t>(p) * kPageBytes;
    const size_t n = std::min<size_t>(kPageBytes, store_.size() - off);
    std::memcpy(store_.data() + off, s.page_bytes.data() + i * kPageBytes, n);
    touched_[p] = 1;
    touched_list_.push_back(p);
  }
  pending_ = s.pending;
  next_seq_ = s.next_seq;
  port_free_ = s.port_free;
  port_stats_ = s.port_stats;
}

}  // namespace pmc::sim
