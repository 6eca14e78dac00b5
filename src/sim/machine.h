// The simulated many-core SoC (paper Fig. 7): tiles of {in-order core,
// single-cycle local memory, private write-back D-cache}, a write-only NoC
// between tiles, and SDRAM with an atomic unit behind a shared bus.
//
// Application code runs natively inside Machine::run(), calling the Core
// facade for every simulated memory operation; the deterministic Scheduler
// interleaves cores by simulated time. See DESIGN.md §2 for what this
// substitutes for the paper's FPGA platform.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "sim/mem_module.h"
#include "sim/noc.h"
#include "sim/poll.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/timing.h"

namespace pmc::sim {

/// Address map: tile-local memories, then the shared-L1 cluster SRAM
/// (when configured), then SDRAM.
inline constexpr Addr kLmBase = 0x1000'0000;
inline constexpr Addr kLmStride = 0x0010'0000;  // 1 MiB per tile slot
inline constexpr Addr kClusterBase = 0x3000'0000;
inline constexpr Addr kSdramBase = 0x4000'0000;

/// Classification of explicit accesses for stall attribution (Fig. 8).
enum class MemClass : uint8_t {
  kSharedData,  // application shared objects
  kSync,        // lock words, barrier counters
  kLocal,       // own local memory / scratch-pad data
};

struct MachineConfig {
  int num_cores = 32;
  int mesh_width = 8;
  uint32_t lm_bytes = 256 * 1024;
  uint32_t sdram_bytes = 8 * 1024 * 1024;
  CacheConfig dcache;
  TimingConfig timing;
  WorkloadProfile profile;
  uint64_t max_cycles = UINT64_C(1) << 40;
  /// SWCC mode caches kSharedData SDRAM accesses; no-CC mode bypasses the
  /// cache for them (the Fig. 8 baseline). kSync is always uncached.
  bool cache_shared = true;
  /// NoC pricing model (DESIGN.md §12). kFlat reproduces the original
  /// hop-count formula bit-for-bit; kMesh adds per-directed-link arbitration
  /// with finite hop buffers, and routes SDRAM atomics and uncached posted
  /// writes through the shared port's queue.
  NocModel noc_model = NocModel::kFlat;
  /// Per-hop input buffer depth (words) under kMesh: stalls longer than the
  /// buffer can absorb back up into the upstream link.
  uint32_t noc_buffer_words = 4;
  /// Interleaved shared-L1 cluster SRAM at kClusterBase (MemPool-style,
  /// DESIGN.md §13). 0 disables the module entirely; back-ends that require
  /// it (shl1) fail with a named error on such machines.
  uint32_t cluster_bytes = 128 * 1024;

  /// The 32-core ML605-like preset used throughout the experiments.
  static MachineConfig ml605(int cores = 32);
  /// The Fig. 1 two-memory configuration: 2 cores, SDRAM much slower than
  /// the NoC path, so the data write can lose the race against the flag.
  static MachineConfig fig1_twomem();

  /// Largest mesh width ≤ 8 that divides `cores` exactly — never a ragged
  /// last row (prime counts degrade to a 1-wide column).
  static int derive_mesh_width(int cores);

  /// Parses an INI-style machine description (DESIGN.md §12 has the
  /// grammar): sections [machine] [cache] [timing] [noc] [workload], with
  /// the ml605 preset (or `preset = ...` as the first key) supplying every
  /// default. Unknown sections/keys and malformed values throw
  /// util::CheckFailure naming `origin` and the 1-based line. The result is
  /// validate()d; mesh_width is derived from the core count unless set.
  static MachineConfig from_string(const std::string& text,
                                   const std::string& origin = "<config>");
  /// from_string over the file's contents; errors name the path.
  static MachineConfig from_file(const std::string& path);

  /// Shape checks (core count vs mesh width, address-map capacity, cache
  /// geometry). Machine's constructor enforces this; throws CheckFailure.
  void validate() const;
};

class Machine;

/// Per-core facade handed to application code. Every method charges
/// simulated time; many are handoff points.
class Core {
 public:
  Core(Machine& m, int id) : m_(m), id_(id) {}

  /// Deferred handoffs (DESIGN.md §2): while one is alive, compute() and
  /// the data accesses (load_*, store_*, read_block, write_block) of a
  /// free-running run move the core's clock without handing off, and the core
  /// settles just before it touches a memory module. Every other method
  /// expects a settled core: call settle() first.
  class Deferred {
   public:
    explicit Deferred(Core& c) : c_(c) { c_.set_deferring(true); }
    ~Deferred() { c_.set_deferring(false); }
    Deferred(const Deferred&) = delete;
    Deferred& operator=(const Deferred&) = delete;

   private:
    Core& c_;
  };
  /// Hands off if deferred advances left this core behind another's turn.
  void settle();

  int id() const { return id_; }
  int num_cores() const;
  uint64_t now() const;
  Machine& machine() { return m_; }
  const MachineConfig& config() const;
  CoreStats& stats();

  /// Executes `instructions` straight-line instructions: busy time plus the
  /// statistical instruction-fetch and private-data stall model.
  void compute(uint64_t instructions);
  /// Advances time without executing (backoff/sleep).
  void idle(uint64_t cycles);

  // -- Data access (routed by address) --------------------------------------
  uint8_t load_u8(Addr a, MemClass c);
  uint32_t load_u32(Addr a, MemClass c);
  void store_u8(Addr a, uint8_t v, MemClass c);
  void store_u32(Addr a, uint32_t v, MemClass c);
  void read_block(Addr a, void* out, size_t n, MemClass c);
  void write_block(Addr a, const void* data, size_t n, MemClass c);

  /// Writes into another tile's local memory over the write-only NoC;
  /// returns the packet's arrival time. Reading another tile's memory is
  /// impossible (checked).
  uint64_t remote_write(int dst_tile, Addr dst_addr, const void* data,
                        size_t n);

  /// Pipelined block transfer from/to SDRAM (DMA-style: one setup round trip
  /// plus dma_per_word per word) — the cost model for object staging.
  void dma_read(Addr src, void* out, size_t n, MemClass c);
  /// Returns the time the written bytes become visible in SDRAM.
  uint64_t dma_write(Addr dst, const void* data, size_t n, MemClass c);

  /// Explicitly charges stall cycles to a Fig. 8 bucket (used by the runtime
  /// back-ends for protocol waits like DSM object handoff).
  enum class StallBucket : uint8_t { kSharedRead, kSyncRead, kWrite, kFlush };
  void charge_stall(uint64_t cycles, StallBucket bucket);
  /// Stalls until simulated time t (no-op if already past).
  void wait_until(uint64_t t, StallBucket bucket);

  // -- Cache maintenance (own D-cache, SDRAM range) --------------------------
  /// Writeback+invalidate; returns the latest SDRAM arrival time of the
  /// posted writebacks (0 when nothing was dirty).
  uint64_t cache_wbinval(Addr a, size_t n);
  void cache_inval(Addr a, size_t n);

  // -- Atomic unit at the SDRAM controller ----------------------------------
  uint32_t atomic_swap(Addr a, uint32_t value);
  uint32_t atomic_add(Addr a, uint32_t delta);
  uint32_t atomic_cas(Addr a, uint32_t expected, uint32_t desired);

  /// The one spin primitive: loads the u32 at `a` until done(value) holds
  /// and returns that value, idling between polls with a backoff that
  /// doubles from backoff_start up to backoff_max (PollSchedule). When the
  /// word is in this core's own local memory and the run is free-running
  /// (no one needs its remaining decision points), a failed poll sleeps
  /// until the first poll that can see a posted write, with the same
  /// cycles, counters and decision count as polling (DESIGN.md §2).
  template <typename Done>
  uint32_t poll_u32(Addr a, MemClass c, Done&& done,
                    uint32_t backoff_start = 2, uint32_t backoff_max = 64) {
    uint64_t backoff = backoff_start;
    uint32_t v = load_u32(a, c);
    while (!done(v)) v = repoll_u32(a, c, backoff, backoff_max);
    return v;
  }

 private:
  friend class Machine;
  void set_deferring(bool on);
  /// After a failed poll at now(): the value of the next poll, reached by
  /// one idle-and-load step or by sleeping through the polls whose outcome
  /// is fixed; `backoff` is the idle before that poll and is advanced.
  uint32_t repoll_u32(Addr a, MemClass c, uint64_t& backoff,
                      uint32_t backoff_max);
  void charge(uint64_t busy, uint64_t stall, uint64_t CoreStats::*bucket);
  /// Records one event ending at now() (caller checks Machine::tracing()),
  /// then samples the CoreStats counter tracks if a sample is due.
  void trace(obs::EventKind kind, uint64_t t0, Addr addr = 0, uint32_t len = 0,
             uint16_t aux = 0, uint64_t arg = 0);
  void sample_counters();
  /// Under the mesh contention model: cycles queued to claim the shared
  /// SDRAM port for `occupancy` cycles of service. Always 0 under kFlat,
  /// which keeps the original fixed-cost paths bit-identical.
  uint64_t sdram_port_wait(uint64_t occupancy);
  uint64_t CoreStats::*read_bucket(MemClass c) const;
  void cached_access(Addr a, void* rd_out, const void* wr_data, size_t n);
  void uncached_access(Addr a, void* rd_out, const void* wr_data, size_t n,
                       MemClass c);
  void cluster_access(Addr a, void* rd_out, const void* wr_data, size_t n,
                      MemClass c);
  void access(Addr a, void* rd_out, const void* wr_data, size_t n, MemClass c);

  Machine& m_;
  int id_;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  const MachineConfig& config() const { return cfg_; }
  int num_cores() const { return cfg_.num_cores; }

  /// Runs body(core) on every core. A Machine instance runs once;
  /// restore() + resume() re-run suffixes of that run.
  void run(const std::function<void(Core&)>& body);

  /// Installs a scheduling-decision override (see sim/scheduler.h); must be
  /// called before run() (or swapped between restore()/resume() cycles). Used by the schedule-exploration engine
  /// (src/explore/) to model-check interleavings. Not owned.
  void set_schedule_policy(SchedulePolicy* policy) {
    sched_.set_policy(policy);
  }

  /// Attaches an event recorder (DESIGN.md §11); nullptr detaches. Not
  /// owned. While attached and armed, every memory/compute/NoC path records
  /// cycle-stamped events; detached, each instrumentation point is one
  /// predictable branch. Recorder contents deep-copy through snapshot()/
  /// restore() (abandoned branches roll back) but are excluded from
  /// digest().
  void set_trace_recorder(obs::TraceRecorder* trace) {
    trace_ = trace;
    sched_.set_trace(trace);
  }
  obs::TraceRecorder* trace_recorder() const { return trace_; }
  /// True when events should be recorded (attached and armed).
  bool tracing() const { return trace_ != nullptr && trace_->armed(); }

  // -- Checkpointing (DESIGN.md §10) ----------------------------------------

  /// Checkpoint callback, forwarded to the scheduler.
  void set_checkpoint_hook(CheckpointHook* hook) {
    sched_.set_checkpoint_hook(hook);
  }

  /// Declares `n` bytes at `p` as machine-coupled mutable state (runtime
  /// back-end metadata, lock bookkeeping, oracle buffers): snapshots copy
  /// the bytes, restore() writes them back. All registrations must precede
  /// the first snapshot; `p` must stay valid and fixed for the Machine's
  /// lifetime.
  void register_state(void* p, size_t n);

  /// Deep copy of every piece of mutable simulator state. Restorable only
  /// into the same Machine instance (fiber stacks are address-dependent).
  struct Snapshot {
    Scheduler::Snapshot sched;
    std::vector<Cache::Snapshot> caches;                  // per core
    std::vector<std::pair<uint64_t, uint64_t>> core_acc;  // imiss, priv
    std::vector<CoreStats> stats;
    MemModule::Snapshot sdram;
    std::vector<MemModule::Snapshot> lms;
    MemModule::Snapshot cluster;  // default-constructed when not configured
    Noc::Snapshot noc;
    std::vector<std::vector<uint8_t>> regions;  // registered-state bytes
    obs::TraceRecorder::Snapshot trace;  // only when a recorder is attached
  };
  /// Fills `s`, reusing its buffers (a pool recycles evicted snapshots).
  void snapshot(Snapshot& s) const;
  void restore(const Snapshot& s);
  /// Continues a restored (mid-run) machine to completion; rethrows like
  /// run(). The body passed to the original run() is reused.
  void resume() { sched_.resume(); }

  /// Order-insensitive fingerprint of a snapshot's deterministic content
  /// (stack bytes, memory pages, stats, clocks; not host pointers), for
  /// snapshot-idempotence checks.
  static uint64_t digest(const Snapshot& s);

  MemModule& sdram() { return sdram_; }
  MemModule& local_mem(int tile) { return *lms_[tile]; }
  /// The shared-L1 cluster SRAM, or nullptr when cluster_bytes == 0.
  MemModule* cluster() { return cluster_.get(); }
  Noc& noc() { return noc_; }
  /// Folds interconnect/port contention telemetry into `reg` (DESIGN.md
  /// §12): noc.* counters plus the link-stall histogram, and port wait
  /// histograms — "port.wait" merged across every module, "port.sdram.wait"
  /// for the shared SDRAM port alone.
  void export_metrics(obs::MetricsRegistry& reg) const;
  Addr lm_base(int tile) const;
  /// Which tile's local memory contains `a`, or -1.
  int tile_of(Addr a) const;

  const CoreStats& stats(int core) const { return stats_[core]; }
  /// Times a core slept in Core::poll_u32 during run() (zero unless the
  /// run, or its tail past the free point, was free-running).
  uint64_t polls_slept() const { return sched_.polls_slept(); }
  /// Fiber switches from one core into another during run(); deferred
  /// handoffs make them fewer in free-running runs (DESIGN.md §2).
  uint64_t handoffs() const { return sched_.handoffs(); }
  /// Decision points of the run so far (Scheduler::decisions()).
  uint64_t decisions() const { return sched_.decisions(); }
  CoreStats stats_sum() const;
  /// Drains in-flight writes and fingerprints all memory + clocks
  /// (determinism checks). Only valid after run().
  uint64_t state_hash();

  /// Host-side backdoor for initializing memory before run() (no timing).
  void poke(Addr a, const void* data, size_t n);
  void peek(Addr a, void* out, size_t n);

 private:
  friend class Core;
  /// A core asleep in Core::poll_u32, armed as its local memory's write
  /// watcher: a write posted to the polled word wakes it by the schedule's
  /// first read at or after the arrival.
  struct PollWatch final : MemModule::WriteWatcher {
    PollWatch(Scheduler& s, int c) : sched(s), core(c) {}
    void on_watched_post(uint64_t arrival) override;
    Scheduler& sched;
    int core;
    PollSchedule polls;  // the failed poll the core fell asleep after
  };
  struct CoreState {
    Cache dcache;
    uint64_t imiss_acc = 0;
    uint64_t priv_acc = 0;
    // Heap-owning scratch for Core methods. Locals like these may not live
    // on the (fiber) stack across a scheduler yield: restore() memcpys stack
    // bytes, which would resurrect stale heap pointers. Content is dead at
    // every yield, so the buffers themselves need no snapshotting.
    Cache::Victim victim_scratch;
    std::vector<uint8_t> wb_scratch;
    PollWatch watch;
    CoreState(const CacheConfig& c, Scheduler& s, int core)
        : dcache(c), watch(s, core) {}
  };
  MemModule& module_for(Addr a, size_t n);

  MachineConfig cfg_;
  Scheduler sched_;
  obs::TraceRecorder* trace_ = nullptr;  // not owned; nullptr = detached
  std::vector<std::unique_ptr<MemModule>> lms_;
  MemModule sdram_;
  std::unique_ptr<MemModule> cluster_;  // nullptr when cluster_bytes == 0
  Noc noc_;
  std::vector<CoreStats> stats_;
  std::vector<std::unique_ptr<CoreState>> cores_;
  std::vector<std::pair<void*, size_t>> regions_;
  std::function<void(Core&)> body_;  // persists for restored-fiber re-entry
  bool ran_ = false;
};

// Inline: SimEnv calls these around every Env operation.
inline void Core::settle() { m_.sched_.settle(id_); }
inline void Core::set_deferring(bool on) { m_.sched_.set_deferring(id_, on); }

}  // namespace pmc::sim
