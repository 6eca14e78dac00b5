// Deterministic many-core scheduler.
//
// Each simulated core runs application code natively on its own fiber (a
// private mmap'ed stack entered by a register-only x86-64 context switch),
// and every fiber of a scheduler runs on the host thread that called run().
// Exactly one core executes at any moment: the one with the smallest
// (local_time, core_id), kept at the top of an indexed min-heap of runnable
// cores. Every simulator call advances the caller's local clock and is a
// potential handoff point (a direct fiber-to-fiber switch). A core may also
// sleep in the heap until a named time, which a later event can only bring
// forward (sleep_until()/wake_by(); DESIGN.md §2).
// Consequences:
//
//  * all memory-system events are generated in nondecreasing global time
//    order, so pending-write queues may be drained lazily at read time;
//  * the simulation is bit-deterministic — scheduling depends only on
//    simulated clocks, never on host timing;
//  * no locks are needed around machine state: one host thread runs it all.
//
// A SchedulePolicy (DESIGN.md §6) may override the pick at every decision
// point. To keep the simulation timing-consistent when a non-minimal core is
// chosen, the dispatched core's clock is warped forward to the scheduler
// frontier (the latest dispatch time so far): a bypassed core behaves as if
// it had been stalled by an external interrupt, and no core ever generates a
// memory event with a timestamp older than an event already executed. Under
// the default min-time pick the warp is provably a no-op, so installing no
// policy (or one that always returns 0) preserves today's bit-deterministic
// behavior exactly.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#if !defined(__linux__) || !defined(__x86_64__)
#error "sim::Scheduler switches fibers with an x86-64 routine and needs Linux"
#endif

#include "obs/trace.h"
#include "sim/footprint.h"

namespace pmc::sim {

/// One runnable core at a decision point.
struct ScheduleCandidate {
  int core = -1;
  uint64_t time = 0;
};

/// Context of one scheduling decision.
struct YieldPoint {
  /// Global decision index, starting at 0 with the initial dispatch.
  /// Deterministic across runs of the same program, which makes it the
  /// coordinate system of replayable decision strings (src/explore/).
  uint64_t step = 0;
  /// Core whose advance (or completion) triggered this decision; -1 for the
  /// initial dispatch before any core ran.
  int yielding = -1;
  /// True when the yielding core touched the memory system (load, store,
  /// atomic, NoC, DMA, cache maintenance) since its previous yield. False
  /// means the segment that just ended was pure delay (compute/idle), which
  /// schedule explorers use to prune equivalent interleavings.
  bool observable = false;
  /// Shared-memory footprint of the segment that just ended (empty for the
  /// initial dispatch and for pure-delay segments). Schedule explorers use
  /// footprint commutativity for happens-before partial-order reduction
  /// (DESIGN.md §8). Populated only when the policy opts in via
  /// SchedulePolicy::wants_footprints(); then `observable ==
  /// !footprint.empty()` by construction.
  Footprint footprint;
};

/// Overrides the scheduler's pick at each decision point. pick() runs on the
/// yielding core's fiber and must not call back into the Scheduler;
/// `cands` is sorted by (time, core_id), so index 0 is the min-time default.
/// Returning 0 everywhere reproduces the default schedule bit-for-bit.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual int pick(const YieldPoint& yp,
                   const std::vector<ScheduleCandidate>& cands) = 0;
  /// Opt-in to per-segment footprint accumulation (YieldPoint::footprint).
  /// Off by default: recording costs heap traffic on every memory access,
  /// and only partial-order-reduction consumers read it (DESIGN.md §8).
  virtual bool wants_footprints() const { return false; }
};

/// Checkpoint callback (DESIGN.md §10). Before each
/// scheduling decision the scheduler asks wants_checkpoint(); when it returns
/// true the running fiber parks and on_checkpoint() runs on the host (main)
/// context, where Machine::snapshot() is safe to call — no simulated core is
/// mid-call on its own stack frame below the yield. Both callbacks must not
/// mutate simulator state, or byte-equality with checkpoint-free runs breaks.
class CheckpointHook {
 public:
  virtual ~CheckpointHook() = default;
  /// Called on the running fiber just before decision `step` (cheap).
  virtual bool wants_checkpoint(uint64_t step, int runnable_cores) = 0;
  /// Called on the main context; `step` is the decision about to be taken.
  virtual void on_checkpoint(uint64_t step) = 0;
};

class Scheduler {
 public:
  /// max_cycles: watchdog — a core advancing past this throws (deadlocked
  /// polls in buggy programs would otherwise spin forever). The ready heap
  /// packs (time, core) into one word, so num_cores <= kMaxCores and
  /// max_cycles <= kMaxCycles (checked).
  explicit Scheduler(int num_cores, uint64_t max_cycles = UINT64_C(1) << 40);
  static constexpr int kCoreBits = 16;
  static constexpr int kMaxCores = 1 << kCoreBits;
  static constexpr uint64_t kMaxCycles = UINT64_C(1) << (64 - kCoreBits);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_cores() const { return static_cast<int>(slots_.size()); }

  /// Installs a decision-point override (nullptr restores the default
  /// min-time pick). Must be called before run(); not owned.
  void set_policy(SchedulePolicy* policy) {
    policy_ = policy;
    record_fp_ = policy != nullptr && policy->wants_footprints();
  }

  /// Attaches an event recorder (nullptr detaches; not owned). Dispatch,
  /// park, and frontier-warp events are recorded while armed (DESIGN.md
  /// §11). Detached costs one predictable branch per handoff; events carry
  /// simulated time only, so identical schedules record identical events.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }

  /// Cycles `core`'s clock was warped forward by dispatches past the
  /// frontier (zero under the default min-time pick). Warped time reaches
  /// `now()` without passing through any machine charge, so the stats layer
  /// folds it into CoreStats::idle at run end to keep the §V-B
  /// time-decomposition identity exact.
  uint64_t warped(int core) const { return slots_[core].warped; }

  /// Runs body(core_id) on one fiber per core, all on the calling thread,
  /// under min-time scheduling; returns when all cores finish. Rethrows the
  /// first exception any core raised.
  void run(const std::function<void(int)>& body);

  /// Installs the checkpoint callback (nullptr disables). Not owned. May be
  /// swapped between run()/resume() calls.
  void set_checkpoint_hook(CheckpointHook* hook) { hook_ = hook; }

  /// Deep copy of all scheduler-owned mutable state: the per-core records
  /// and, per fiber, its saved stack pointer and the used slice of its
  /// stack (the switch keeps the callee-saved registers and the FP control
  /// words on the stack, so the slice holds them too). Restorable only into
  /// the *same* Scheduler: the saved stack pointers and the frames' pointers
  /// into their own stacks are addresses. The ready queue is derived from
  /// the records and is rebuilt, not copied. Callable from
  /// CheckpointHook::on_checkpoint, i.e. from the main context.
  struct Snapshot {
    struct SlotState {
      uint64_t time = 0;
      uint64_t warped = 0;
      bool done = false;
      bool observable = false;
      Footprint fp;
    };
    struct FiberImage {
      void* sp = nullptr;          // saved stack pointer
      size_t stack_off = 0;        // offset of the saved slice in the stack
      std::vector<uint8_t> stack;  // [stack_off, stack_off + stack.size())
      /// Bytes at the front of `stack` below the saved stack pointer: the
      /// red-zone margin, copied for restore() but dead at the swap (it
      /// holds sanitizer-runtime residue), so digests skip it.
      size_t dead_bytes = 0;
    };
    std::vector<SlotState> slots;
    std::vector<FiberImage> fibers;
    uint64_t step = 0;
    uint64_t frontier = 0;
    int current = 0;
    int resume_core = -1;  // fiber parked at the checkpoint; -1 = pre-dispatch
    std::exception_ptr error;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

  /// Continues a restored run to completion: re-enters the
  /// checkpointed fiber — or redoes the initial dispatch for a pre-dispatch
  /// snapshot — and drives until every core is done. Rethrows like run().
  /// The checkpoint that produced the snapshot is not re-offered to the hook.
  void resume();

  /// Local clock of `core`. Only meaningful from that core's own fiber.
  uint64_t now(int core) const { return slots_[core].time; }

  /// Marks that `core` performed (or is mid-way through) a memory-system
  /// effect on `[addr, addr+len)` since its last advance (cheap no-op
  /// without a policy). `sync` tags lock/barrier words. Called by the
  /// machine layer from the running core's own fiber; accumulated into the
  /// current segment's footprint and reported at the next yield.
  void note_access(int core, uint64_t addr, uint32_t len, AccessKind kind,
                   bool sync = false) {
    if (policy_ != nullptr) {
      slots_[core].observable = true;
      if (record_fp_) slots_[core].fp.add(addr, len, kind, sync);
    }
  }

  /// Escape hatch for effects with no addressable range: the segment stays
  /// observable and its footprint conflicts with everything (never enables
  /// pruning). No machine path uses it today — every current effect has a
  /// range and calls note_access — but new shared-state paths that cannot
  /// name one must call this rather than stay invisible to exploration.
  void note_effect(int core) {
    if (policy_ != nullptr) {
      slots_[core].observable = true;
      if (record_fp_) slots_[core].fp.add_wildcard();
    }
  }

  /// Number of scheduling decisions taken so far (policy runs only).
  uint64_t decisions() const { return step_; }

  /// Advances the calling core's clock and yields if it is no longer the
  /// minimum. Must only be called by the currently running core.
  void advance(int core, uint64_t delta);

  /// True when something sees every decision point: a policy, a checkpoint
  /// hook or a trace recorder. Sleeping skips decision points, so only an
  /// unobserved run may sleep.
  bool observed() const {
    return policy_ != nullptr || hook_ != nullptr || trace_ != nullptr;
  }
  /// Parks the running `core` with its clock at `t` (now < t < max_cycles)
  /// and hands off; it runs again once (t, core) is the minimum, where
  /// wake_by() may have lowered t meanwhile. Unobserved runs only.
  void sleep_until(int core, uint64_t t);
  /// Lowers a sleeping `core`'s clock to `t` if that is earlier. `t` must
  /// be later than the running core's clock (checked), so the sleeper
  /// still runs after it and events keep executing in nondecreasing time.
  void wake_by(int core, uint64_t t);
  /// Number of sleep_until() calls in this run (zero in observed runs).
  uint64_t polls_slept() const { return polls_slept_; }

  /// True once run() completed and some core threw.
  bool failed() const { return error_ != nullptr; }

 private:
  struct Slot {
    uint64_t time = 0;
    uint64_t warped = 0;      // cumulative frontier-warp cycles (see warped())
    bool done = false;
    bool observable = false;  // effect since last yield (policy runs only)
    Footprint fp;             // footprint since last yield (policy runs only)
  };

  /// munmaps a fiber stack together with the guard page below it.
  struct StackUnmap {
    void operator()(uint8_t* stack) const;
  };

  struct Fiber {
    void* sp = nullptr;  // saved stack pointer while the fiber is switched out
    std::unique_ptr<uint8_t, StackUnmap> stack;  // lowest usable byte
    void* tsan = nullptr;  // ThreadSanitizer fiber context (TSan builds)
  };

  /// True when dispatch/park/warp events should be recorded.
  bool tracing() const { return trace_ != nullptr && trace_->armed(); }
  /// Records the `from` → `to` handoff (to == -1: park only; aux flags a
  /// finished core). Caller checks tracing().
  void trace_switch(int from, int to, bool from_done);

  /// Lowest (time, core) runnable core, -1 when all are done.
  int pick_next() const {
    return ready_.empty() ? -1 : key_core(ready_[0]);
  }
  /// Consults the policy, warps the chosen core's clock to the frontier and
  /// advances the frontier; returns the chosen core or -1 when all done.
  int consult_policy(int yielding);
  /// pick_next() or consult_policy(), whichever applies.
  int next_core(int yielding) {
    return policy_ != nullptr ? consult_policy(yielding) : pick_next();
  }

  // Ready queue: a binary min-heap of the runnable cores keyed by
  // time << kCoreBits | core — a strict order, so its top is exactly the
  // core a linear scan for the minimum would pick, and one integer compare
  // orders two entries. advance(), sleep_until() and the frontier warp
  // raise a key and sift it down; wake_by() lowers one and sifts it up.
  static uint64_t ready_key(uint64_t time, int core) {
    return time << kCoreBits | static_cast<uint64_t>(core);
  }
  static int key_core(uint64_t key) {
    return static_cast<int>(key & (kMaxCores - 1));
  }
  /// Rewrites `core`'s key from its clock (which must have grown) and
  /// sifts it down.
  void requeue_later(int core);
  void sift_up(size_t i);
  void sift_down(size_t i);
  void remove_ready(int core);
  /// Refills the heap from the slots' done flags and clocks.
  void rebuild_ready();

  // The decision is consulted *on* the yielding fiber and handoffs are direct
  // fiber-to-fiber swaps; the main context is entered only for checkpoints
  // and at run end, so checkpointing cannot perturb decision order.
  void init_fibers();
  void destroy_tsan_fibers();
  /// Saves the running context's stack pointer into `from_sp` and enters
  /// core `to` (-1: the main context), with the sanitizer fiber annotations
  /// around the switch. `from_dies` marks a fiber's final exit.
  void switch_to(void*& from_sp, int to, bool from_dies = false);
  void drive();
  void maybe_checkpoint_yield(int core);
  void fiber_main(int core);
  bool all_done() const { return ready_.empty(); }
  /// First frame of every fiber; dispatches via a TLS pointer.
  static void fiber_entry();

  std::vector<Slot> slots_;
  std::vector<uint64_t> ready_;  // ready-queue heap of ready_key()s
  std::vector<int> pos_;         // per core: index in ready_, -1 once done
  std::vector<ScheduleCandidate> cands_;  // consult_policy's reused list
  int current_ = 0;
  uint64_t max_cycles_;
  std::exception_ptr error_;
  SchedulePolicy* policy_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;  // not owned; nullptr = detached
  bool record_fp_ = false;  // policy_->wants_footprints(), cached
  uint64_t step_ = 0;      // decision counter (policy runs only)
  uint64_t frontier_ = 0;  // latest dispatch time (policy runs only)
  uint64_t polls_slept_ = 0;  // sleep_until() calls (unobserved runs only)

  std::vector<Fiber> fibers_;  // allocated on the first run()
  void* main_sp_ = nullptr;    // the host context's SP while a fiber runs
  void* main_tsan_ = nullptr;  // the host thread's TSan fiber, set by drive()
  CheckpointHook* hook_ = nullptr;
  int resume_core_ = -1;  // fiber parked at the live checkpoint, -1 otherwise
  std::function<void(int)> body_;  // persists across restore()/resume()
};

}  // namespace pmc::sim
