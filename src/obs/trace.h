// Cycle-accurate event tracing for the simulated SoC (DESIGN.md §11).
//
// A TraceRecorder is a fixed-capacity ring of POD TraceEvents, cheap enough
// to hang off sim::Machine permanently: when no recorder is attached the
// instrumentation points cost one predictable branch, and when one is
// attached but disarmed they cost two. Events carry simulated time only
// (never wall clock), so the same schedule produces byte-identical traces
// on every engine, job count, and host.
//
// Snapshot contract: recorder state deep-copies through snapshot()/restore()
// so the stateful engine (DESIGN.md §10) rolls abandoned-branch events back
// along with the machine — but the buffer is deliberately *excluded* from
// Machine::digest(), because the digest certifies simulator state, and the
// trace is a log of how we got there, not part of "there".
//
// chrome_trace_json() renders the buffer in the Chrome trace-event format
// (https://ui.perfetto.dev loads it directly): one thread track per core
// (scheduler run slices with memory/sync events nested inside), counter
// tracks sampled from sim::CoreStats, and flow arrows connecting every NoC
// send to its delivery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pmc::obs {

enum class EventKind : uint8_t {
  // Scheduler (src/sim/scheduler.cpp).
  kDispatch,  // core starts running; t0 = its clock after any frontier warp
  kPark,      // core yields (or finishes: aux = 1)
  kWarp,      // frontier warp: core's clock jumped from t0 to t1 (DESIGN §6)
  // Core-local time (src/sim/machine.cpp).
  kCompute,  // aux = instructions
  kIdle,
  kWait,  // wait_until / charge_stall
  // Memory, with address. aux = sim::MemClass for loads/stores.
  kLoad,
  kStore,
  kAtomic,     // aux: 0 = swap, 1 = add, 2 = cas
  kCacheHit,   // addr = line
  kCacheMiss,  // addr = line (instant, at detection)
  kCacheFill,  // addr = line; the SDRAM line fill that services a miss
  kWriteback,  // addr = victim line; arg = SDRAM arrival cycle
  kFlush,      // wbinval/inval over [addr, addr+len); aux = lines touched
  kDmaRead,
  kDmaWrite,
  kNocSend,   // aux = destination core, arg = arrival cycle
  kNocQueue,  // contention instant after a send: aux = destination core,
              // len = link-stall cycles, arg = destination-port wait cycles
  // Sync objects (src/sync). aux = lock id / barrier round.
  kLockAcquire,
  kLockRelease,
  kBarrier,
  // CoreStats sample (counter track). aux = CounterId, arg = value.
  kCounter,
};

/// Display name used for the Perfetto slice (stable; part of the trace
/// byte-equality contract).
const char* event_name(EventKind k);

/// Cumulative per-core CoreStats series sampled onto counter tracks.
enum class CounterId : uint16_t {
  kBusy,
  kStall,
  kIdle,
  kDcacheMisses,
  kNocBytes,
};
inline constexpr int kNumCounters = 5;
const char* counter_name(CounterId id);

/// One event. Value type, 48 bytes, no owned storage: recording is a bounds
/// check plus a struct store.
struct TraceEvent {
  EventKind kind = EventKind::kCompute;
  int16_t core = -1;
  uint16_t aux = 0;
  uint32_t len = 0;
  uint64_t t0 = 0;  // start cycle (this core's clock)
  uint64_t t1 = 0;  // end cycle; t1 == t0 for instants
  uint64_t addr = 0;
  uint64_t arg = 0;

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.kind == b.kind && a.core == b.core && a.aux == b.aux &&
           a.len == b.len && a.t0 == b.t0 && a.t1 == b.t1 &&
           a.addr == b.addr && a.arg == b.arg;
  }
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 16;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  /// Armed ⇒ instrumentation points record. A disarmed recorder is the
  /// "attached but off" state bench_trace_overhead prices against a
  /// detached machine: every instrumentation point is guarded by
  /// `trace != nullptr && trace->armed()` before any event is built.
  bool armed() const { return armed_; }
  void arm() { armed_ = true; }
  void disarm() { armed_ = false; }

  /// Appends an event; once full the ring overwrites the oldest event and
  /// counts it in dropped(). Callers check armed() first.
  void record(const TraceEvent& e) {
    if (size_ == ring_.size()) {
      ++dropped_;
    } else {
      ++size_;
    }
    ring_[head_] = e;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  }

  /// Throttle for CoreStats counter sampling: true at most once per
  /// counter_period() cycles per core (and always for a core's first
  /// sample). Advances the core's next-due time when it fires.
  bool counter_due(int core, uint64_t now);

  uint64_t counter_period() const { return counter_period_; }
  void set_counter_period(uint64_t cycles) {
    counter_period_ = cycles == 0 ? 1 : cycles;
  }

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint64_t dropped() const { return dropped_; }

  void clear();

  /// The buffered events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Deep copy of all recorder state (buffer stored compacted, so a
  /// snapshot costs O(size), not O(capacity)).
  struct Snapshot {
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    uint64_t counter_period = 256;
    bool armed = true;
    std::vector<uint64_t> next_sample;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  // next write slot
  size_t size_ = 0;
  uint64_t dropped_ = 0;
  bool armed_ = true;
  uint64_t counter_period_ = 256;
  std::vector<uint64_t> next_sample_;  // per core, grown on demand
};

/// Renders events as a Chrome trace-event JSON document ("traceEvents"
/// array; ts unit = 1 simulated cycle). Deterministic: byte-identical
/// events produce a byte-identical document.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              uint64_t dropped = 0);

inline std::string chrome_trace_json(const TraceRecorder& rec) {
  return chrome_trace_json(rec.events(), rec.dropped());
}

}  // namespace pmc::obs
