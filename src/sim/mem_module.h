// A memory module: byte storage plus a queue of in-flight writes.
//
// Writes posted over an interconnect carry an arrival time; a read at time t
// first applies every pending write with arrival ≤ t (in (arrival, seq)
// order). Because the scheduler only runs the minimum-time core, all posts
// are made before any read that could observe them — so lazy draining is
// exact. In-flight writes are what make the Fig. 1 reordering observable:
// two writes to modules with different latencies become visible out of
// issue order.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pmc::sim {

using Addr = uint32_t;

class MemModule {
 public:
  MemModule(std::string name, Addr base, size_t size);

  const std::string& name() const { return name_; }
  Addr base() const { return base_; }
  size_t size() const { return store_.size(); }
  bool contains(Addr a, size_t n) const {
    return a >= base_ && a + n <= base_ + store_.size();
  }

  /// Immediate read at time t (local bus or arrived request).
  void read(uint64_t t, Addr a, void* out, size_t n);
  /// Immediate write at time t (local bus): earlier in-flight writes are
  /// applied first so a same-address race resolves by arrival order.
  void write(uint64_t t, Addr a, const void* data, size_t n);
  /// A write arriving over an interconnect at time `arrival`. Every posted
  /// write passes here, so this is where a watched word hears of one.
  void post_write(uint64_t arrival, Addr a, const void* data, size_t n);

  /// Hears of posted writes to a watched word (see watch()).
  class WriteWatcher {
   public:
    virtual void on_watched_post(uint64_t arrival) = 0;

   protected:
    ~WriteWatcher() = default;
  };
  /// Reports the arrival of every write posted over [a, a+n) to `w` until
  /// unwatch(). One watch per module: only the tile's own core reads its
  /// local memory, and it polls one word at a time. Not snapshotted — a
  /// watch is armed only while a core sleeps, which no checkpoint sees.
  void watch(Addr a, size_t n, WriteWatcher* w) {
    watch_addr_ = a;
    watch_len_ = n;
    watcher_ = w;
  }
  void unwatch() { watcher_ = nullptr; }
  /// Earliest arrival among the in-flight writes overlapping [a, a+n),
  /// UINT64_MAX when none.
  uint64_t first_pending_arrival(Addr a, size_t n) const;

  /// Atomic read-modify-write at time t (the hardware atomic unit port).
  uint32_t atomic_swap_u32(uint64_t t, Addr a, uint32_t value);
  uint32_t atomic_add_u32(uint64_t t, Addr a, uint32_t delta);
  /// Compare-and-swap; returns the old value (success iff old == expected).
  uint32_t atomic_cas_u32(uint64_t t, Addr a, uint32_t expected,
                          uint32_t desired);

  /// Port serialization for incoming interconnect traffic: returns the
  /// earliest start ≥ `earliest` and occupies the port for `occupancy`.
  uint64_t reserve_port(uint64_t earliest, uint64_t occupancy);

  /// Queueing telemetry for the write port, maintained by reserve_port()
  /// (DESIGN.md §12). Accounting identity: wait_cycles is the exact sum of
  /// per-reservation (start − earliest) and busy_cycles the sum of
  /// occupancies, so merged exports reconcile against the counters.
  struct PortStats {
    uint64_t reservations = 0;
    uint64_t wait_cycles = 0;
    uint64_t busy_cycles = 0;
    obs::Histogram wait_hist;  ///< distribution of per-reservation waits
  };
  const PortStats& port_stats() const { return port_stats_; }

  size_t pending_writes() const { return pending_.size(); }
  /// Applies every pending write (end of simulation), regardless of time.
  void drain_all();
  /// FNV-1a hash of the entire storage (determinism checks).
  uint64_t content_hash() const;

  /// Checkpoint granule for snapshot(): contents are saved per 256-byte
  /// page, and only pages some write ever dirtied — the store starts
  /// all-zero, so untouched pages need no bytes.
  static constexpr uint32_t kPageBytes = 256;

 private:
  struct Pending {
    uint64_t arrival;
    uint64_t seq;
    Addr addr;
    std::vector<uint8_t> data;
    bool operator>(const Pending& o) const {
      return arrival != o.arrival ? arrival > o.arrival : seq > o.seq;
    }
  };
  struct PendingQueue : std::priority_queue<Pending, std::vector<Pending>,
                                            std::greater<Pending>> {
    /// The heap's storage, in heap order.
    const std::vector<Pending>& items() const { return c; }
  };

 public:
  /// Deep copy of module state: dirtied page contents, the in-flight write
  /// queue, and port/sequence clocks (DESIGN.md §10). Restorable only into
  /// the module that took it: the write generations are this module's.
  struct Snapshot {
    std::vector<uint32_t> pages;      // dirtied page indices, first-touch order
    std::vector<uint64_t> page_gens;  // each page's write generation, same order
    std::vector<uint8_t> page_bytes;  // pages.size() * kPageBytes, same order
    uint64_t gen = 0;                 // the module's write generation
    PendingQueue pending;
    uint64_t next_seq = 0;
    uint64_t port_free = 0;
    PortStats port_stats;
  };
  /// Fills `s`, reusing its buffers.
  void snapshot(Snapshot& s) const;
  Snapshot snapshot() const {
    Snapshot s;
    snapshot(s);
    return s;
  }
  /// Restores to the snapshot from *any* later state of this module, even
  /// one reached on another explored branch. A page whose write generation
  /// equals the saved one still holds the saved bytes and is skipped, as is
  /// the whole page set when the module's generation equals the saved one;
  /// the other saved pages get their bytes back, and pages dirtied since
  /// that the snapshot did not save return to zero.
  void restore(const Snapshot& s);

 private:
  void apply_pending(uint64_t t);
  uint8_t* at(Addr a, size_t n);
  /// Marks [a, a+n) dirty for snapshotting. Every mutation funnels through
  /// here — including lazily-applied posted writes at their apply time.
  void mark_write(Addr a, size_t n);

  std::string name_;
  Addr base_;
  std::vector<uint8_t> store_;
  PendingQueue pending_;
  uint64_t next_seq_ = 0;
  uint64_t port_free_ = 0;
  PortStats port_stats_;
  // Write generations: every mutation takes the next value of gen_clock_,
  // and the module and each page it dirtied record it. The clock is never
  // restored, so one generation never names two different contents.
  uint64_t gen_clock_ = 0;
  uint64_t gen_ = 0;                    // generation of the last write
  std::vector<uint32_t> touched_slot_;  // per page: 1 + index in touched_list_
  std::vector<uint32_t> touched_list_;  // dirtied pages, first-touch order
  std::vector<uint64_t> touched_gen_;   // generation of each listed page
  WriteWatcher* watcher_ = nullptr;     // not owned; nullptr = no watch
  Addr watch_addr_ = 0;
  size_t watch_len_ = 0;
};

}  // namespace pmc::sim
