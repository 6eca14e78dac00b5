#include "sim/scheduler.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/check.h"

// Sanitizers cannot follow a fiber stack switch on their own; the fiber
// annotations below keep TSan's per-fiber state and ASan's stack bounds in
// step with every switch (DESIGN.md §10).
#if defined(__SANITIZE_THREAD__)
#define PMC_TSAN_FIBERS 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PMC_ASAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PMC_TSAN_FIBERS 1
#endif
#if __has_feature(address_sanitizer)
#define PMC_ASAN_FIBERS 1
#endif
#endif

#if defined(PMC_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
// The instrumentation entry hook; not declared by the public header.
extern "C" void __tsan_func_entry(void* call_pc);
#endif
#if defined(PMC_ASAN_FIBERS)
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// pmc_fiber_switch(save_sp, load_sp): pushes the callee-saved registers and
// an 8-byte FP-control slot (MXCSR, then the x87 control word) onto the
// running stack, stores the stack pointer to *save_sp, loads the target's
// from *load_sp and pops the target's saved state in reverse. Everything
// else the System V ABI lets a callee clobber, so a plain call suffices and
// no signal mask is touched (glibc's swapcontext makes a sigprocmask system
// call on every switch). The target SP is read through its slot's address
// inside the routine, never held in a C++ local: under ASan such a local is
// spilled onto the fiber stack, and a host-context SP there makes snapshot
// digests depend on where the host stack happened to be.
asm(R"(
  .pushsection .text
  .globl pmc_fiber_switch
  .hidden pmc_fiber_switch
  .type pmc_fiber_switch, @function
  .p2align 4
pmc_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  pushq $0
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq (%rsi), %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size pmc_fiber_switch, .-pmc_fiber_switch
  .popsection
)");

extern "C" void pmc_fiber_switch(void** save_sp, void* const* load_sp);

namespace pmc::sim {

namespace {

/// 256 KiB per core: simulated bodies are shallow (app kernel -> runtime ->
/// machine -> scheduler), but validator/backend frames plus libc leave
/// headroom. Snapshots copy only the used slice, so the size is cheap.
constexpr size_t kFiberStackBytes = 256 * 1024;

/// x86_64 System V leaks up to 128 bytes of live data below the stack
/// pointer (the red zone); the saved slice starts below it.
constexpr size_t kStackSliceMargin = 128;

/// A fiber's first entry is a `ret` into fiber_entry and carries no
/// argument, so the entry trampoline finds its scheduler here. Safe across
/// concurrent Machines: every fiber of a scheduler runs on the host thread
/// that called run()/resume().
thread_local Scheduler* tl_fiber_sched = nullptr;

size_t page_bytes() {
  static const size_t bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

/// Maps a fiber stack with a PROT_NONE guard page below it, so an overflow
/// faults instead of running into neighbouring memory. Pages are faulted in
/// on first touch; a shallow body never touches most of them.
uint8_t* map_stack() {
  const size_t guard = page_bytes();
  void* p = mmap(nullptr, guard + kFiberStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  PMC_CHECK_MSG(p != MAP_FAILED, "fiber stack mmap failed");
  PMC_CHECK(mprotect(p, guard, PROT_NONE) == 0);
  return static_cast<uint8_t*>(p) + guard;
}

#if defined(PMC_TSAN_FIBERS)
/// Shadow call-stack entries pushed onto a re-created TSan fiber before a
/// restored stack runs on it: the restored frames return through entries
/// the fresh context never saw, and the padding absorbs those pops.
constexpr int kTsanShadowPad = 256;
#endif

#if defined(PMC_ASAN_FIBERS)
struct StackBounds {
  const void* bottom = nullptr;
  size_t size = 0;
};

/// The calling host thread's own stack, the destination of every swap back
/// to the main context.
const StackBounds& host_stack() {
  thread_local const StackBounds bounds = [] {
    pthread_attr_t attr;
    PMC_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0);
    void* addr = nullptr;
    StackBounds b;
    PMC_CHECK(pthread_attr_getstack(&attr, &addr, &b.size) == 0);
    pthread_attr_destroy(&attr);
    b.bottom = addr;
    return b;
  }();
  return bounds;
}
#endif

/// Clears ASan poisoning (stale frame redzones) on fiber-stack bytes that
/// snapshot()/restore() copy wholesale; a no-op in other builds.
void unpoison(const uint8_t* p, size_t n) {
#if defined(PMC_ASAN_FIBERS)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace

void Scheduler::StackUnmap::operator()(uint8_t* stack) const {
  const size_t guard = page_bytes();
  munmap(stack - guard, guard + kFiberStackBytes);
}

Scheduler::Scheduler(int num_cores, uint64_t max_cycles)
    : max_cycles_(max_cycles) {
  PMC_CHECK_MSG(num_cores >= 1 && num_cores <= kMaxCores,
                "num_cores must be in [1, " << kMaxCores << "]");
  PMC_CHECK_MSG(max_cycles <= kMaxCycles,
                "max_cycles must be <= " << kMaxCycles);
  slots_.resize(static_cast<size_t>(num_cores));
}

Scheduler::~Scheduler() { destroy_tsan_fibers(); }

void Scheduler::trace_switch(int from, int to, bool from_done) {
  obs::TraceEvent e;
  if (from >= 0) {
    e.kind = obs::EventKind::kPark;
    e.core = static_cast<int16_t>(from);
    e.aux = from_done ? 1 : 0;
    e.t0 = e.t1 = slots_[from].time;
    trace_->record(e);
  }
  if (to >= 0 && to != from) {
    e.kind = obs::EventKind::kDispatch;
    e.core = static_cast<int16_t>(to);
    e.aux = 0;
    e.t0 = e.t1 = slots_[to].time;
    trace_->record(e);
  }
}

void Scheduler::sift_up(size_t i) {
  const uint64_t key = ready_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (ready_[parent] < key) break;
    ready_[i] = ready_[parent];
    pos_[static_cast<size_t>(key_core(ready_[i]))] = static_cast<int>(i);
    i = parent;
  }
  ready_[i] = key;
  pos_[static_cast<size_t>(key_core(key))] = static_cast<int>(i);
}

void Scheduler::sift_down(size_t i) {
  const uint64_t key = ready_[i];
  const size_t n = ready_.size();
  const size_t start = i;
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && ready_[child + 1] < ready_[child]) ++child;
    if (key < ready_[child]) break;
    ready_[i] = ready_[child];
    pos_[static_cast<size_t>(key_core(ready_[i]))] = static_cast<int>(i);
    i = child;
  }
  // Unmoved: skipping the two stores is measurably cheaper per advance().
  if (i == start) return;
  ready_[i] = key;
  pos_[static_cast<size_t>(key_core(key))] = static_cast<int>(i);
}

void Scheduler::requeue_later(int core) {
  const size_t i = static_cast<size_t>(pos_[static_cast<size_t>(core)]);
  ready_[i] = ready_key(slots_[core].time, core);
  slots_[core].stale = false;
  sift_down(i);
}

void Scheduler::settle_stale(int core) {
  requeue_later(core);
  const int next = pick_next();
  if (next != core) hand_off(core, next);
}

void Scheduler::remove_ready(int core) {
  const size_t i = static_cast<size_t>(pos_[static_cast<size_t>(core)]);
  const uint64_t last = ready_.back();
  ready_.pop_back();
  pos_[static_cast<size_t>(core)] = -1;
  if (key_core(last) == core) return;
  ready_[i] = last;
  sift_up(i);
  sift_down(static_cast<size_t>(pos_[static_cast<size_t>(key_core(last))]));
}

void Scheduler::rebuild_ready() {
  ready_.clear();
  pos_.assign(slots_.size(), -1);
  for (int i = 0; i < num_cores(); ++i) {
    if (!slots_[i].done) ready_.push_back(ready_key(slots_[i].time, i));
  }
  // A sorted array is a valid heap.
  std::sort(ready_.begin(), ready_.end());
  for (size_t i = 0; i < ready_.size(); ++i) {
    pos_[static_cast<size_t>(key_core(ready_[i]))] = static_cast<int>(i);
  }
}

int Scheduler::consult_policy(int yielding) {
  if (ready_.empty()) return -1;
  cands_.clear();
  for (const uint64_t key : ready_) {
    const int core = key_core(key);
    cands_.push_back({core, slots_[static_cast<size_t>(core)].time});
  }
  std::sort(cands_.begin(), cands_.end(),
            [](const ScheduleCandidate& a, const ScheduleCandidate& b) {
              return a.time != b.time ? a.time < b.time : a.core < b.core;
            });
  YieldPoint yp;
  yp.step = step_++;
  consulting_ = step_ < free_step_;
  yp.yielding = yielding;
  const int choice = policy_->pick(yp, cands_);
  PMC_CHECK_MSG(choice >= 0 && choice < static_cast<int>(cands_.size()),
                "schedule policy returned candidate index "
                    << choice << " of " << cands_.size() << " at step "
                    << yp.step);
  const int chosen_core = cands_[static_cast<size_t>(choice)].core;
  if (frontier_ > slots_[chosen_core].time) warp_to_frontier(chosen_core);
  frontier_ = slots_[chosen_core].time;
  return chosen_core;
}

void Scheduler::warp_to_frontier(int core) {
  // Bypassed cores were effectively stalled: the dispatched core may never
  // start a segment before the frontier, or its memory events could carry
  // timestamps older than reads that already executed. Warped cycles reach
  // now() without a machine charge, so they are tallied per slot and folded
  // into CoreStats::idle at run end (see warped()).
  Slot& s = slots_[core];
  s.warped += frontier_ - s.time;
  if (tracing()) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kWarp;
    e.core = static_cast<int16_t>(core);
    e.t0 = s.time;
    e.t1 = frontier_;
    trace_->record(e);
  }
  s.time = frontier_;
  // No read of the heap can tell: the warped core runs next and its
  // advance() or remove_ready() re-sifts it first. Kept so the heap is
  // valid at every instant rather than by that invariant, which the
  // pick_next() fallback and any future reader would silently depend on.
  requeue_later(core);
}

void Scheduler::start_observing() {
  free_step_ = std::max(policy_ != nullptr ? policy_->free_step() : 0,
                        hook_ != nullptr ? hook_->free_step() : 0);
  consulting_ = policy_ != nullptr && step_ < free_step_;
  // With no observer at all, the run is free from its first decision.
  free_running_ = policy_ == nullptr && hook_ == nullptr && trace_ == nullptr;
}

void Scheduler::advance(int core, uint64_t delta) {
  PMC_CHECK_MSG(current_ == core, "advance() from a core that is not running");
  Slot& me = slots_[core];
  // Checked before the clock moves: a clock past the watchdog need not fit
  // the key's time bits. A throw leaves the clock and the old key, still a
  // valid heap entry, until the finished fiber settles at that clock and
  // remove_ready() drops it.
  PMC_CHECK_MSG(delta < max_cycles_ - me.time,
                "simulation watchdog: core " << core << " passed "
                    << max_cycles_ << " cycles (deadlock?)");
  me.time += delta;
  if (me.deferring) {
    me.stale = true;
    ++step_;  // the decision point the eager advance would have taken
    return;
  }
  requeue_later(core);
  maybe_checkpoint_yield(core);
  const int next = next_core(core);
  if (next == core || next == -1) return;
  if (tracing()) trace_switch(core, next, /*from_done=*/false);
  hand_off(core, next);
}

void Scheduler::sleep_until(int core, uint64_t t) {
  PMC_CHECK_MSG(current_ == core && free_running_,
                "sleep_until() from a core that is not running, or in a "
                "run that is not free-running");
  PMC_CHECK(t > slots_[core].time && t < max_cycles_);
  slots_[core].time = t;
  requeue_later(core);
  ++polls_slept_;
  const int next = pick_next();
  if (next != core) hand_off(core, next);
}

void Scheduler::wake_by(int core, uint64_t t) {
  PMC_CHECK_MSG(t > slots_[current_].time,
                "wake_by() to " << t << ", not after the running core");
  Slot& sl = slots_[core];
  if (t >= sl.time) return;
  sl.time = t;
  const size_t i = static_cast<size_t>(pos_[static_cast<size_t>(core)]);
  ready_[i] = ready_key(t, core);
  sift_up(i);
}

void Scheduler::run(const std::function<void(int)>& body) {
  body_ = body;
  for (auto& s : slots_) {
    s.time = 0;
    s.warped = 0;
    s.done = false;
    s.deferring = false;
    s.stale = false;
  }
  error_ = nullptr;
  step_ = 0;
  frontier_ = 0;
  polls_slept_ = 0;
  handoffs_ = 0;
  start_observing();
  resume_core_ = -1;
  rebuild_ready();
  init_fibers();
  tl_fiber_sched = this;
  // The pre-dispatch checkpoint (the root of a stateful search) runs on the
  // main context directly; there is no fiber to park yet.
  if (hook_ != nullptr && step_ < free_step_ &&
      hook_->wants_checkpoint(0, num_cores())) {
    hook_->on_checkpoint(0);
  }
  // Lowest id runs first among the all-zero clocks — unless a policy
  // overrides this very first decision too.
  current_ = next_core(/*yielding=*/-1);
  if (tracing()) trace_switch(-1, current_, false);
  drive();
}

void Scheduler::fiber_entry() {
#if defined(PMC_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  Scheduler* sched = tl_fiber_sched;
  // A fiber is only ever entered when it is the current core, so its own id
  // is exactly current_ at first dispatch.
  sched->fiber_main(sched->current_);
  // Unreachable: fiber_main ends in a switch that never returns, and the
  // hand-built first frame has no caller to return to.
}

void Scheduler::init_fibers() {
  if (fibers_.empty()) {
    fibers_.resize(slots_.size());
    for (Fiber& f : fibers_) f.stack.reset(map_stack());
  }
  destroy_tsan_fibers();
  // Fibers start with the host thread's FP control state (rounding mode,
  // exception masks).
  uint16_t x87_control = 0;
  asm volatile("fnstcw %0" : "=m"(x87_control));
  const uint64_t fp_control =
      __builtin_ia32_stmxcsr() | uint64_t{x87_control} << 32;
  for (Fiber& f : fibers_) {
#if defined(PMC_TSAN_FIBERS)
    f.tsan = __tsan_create_fiber(0);
#endif
    // Frames of the previous run may have left ASan redzones poisoned, and
    // only glibc's swapcontext interceptor would clear them.
    unpoison(f.stack.get(), kFiberStackBytes);
    // The frame pmc_fiber_switch pops, from the saved SP upward: the FP
    // control slot, zeroed r15..r12/rbx/rbp, and a return address into
    // fiber_entry, above which a null slot stands in for fiber_entry's own
    // return address. The `ret` leaves SP at 8 mod 16, as after a call.
    auto* top = reinterpret_cast<uint64_t*>(f.stack.get() + kFiberStackBytes);
    uint64_t* sp = top - 9;
    std::memset(sp, 0, 9 * sizeof(uint64_t));
    sp[0] = fp_control;
    sp[7] = reinterpret_cast<uint64_t>(&Scheduler::fiber_entry);
    f.sp = sp;
  }
}

void Scheduler::destroy_tsan_fibers() {
#if defined(PMC_TSAN_FIBERS)
  for (Fiber& f : fibers_) {
    if (f.tsan != nullptr) __tsan_destroy_fiber(f.tsan);
    f.tsan = nullptr;
  }
#endif
}

void Scheduler::switch_to(void*& from_sp, int to, bool from_dies) {
  void* const* const target_sp =
      to >= 0 ? &fibers_[static_cast<size_t>(to)].sp : &main_sp_;
#if defined(PMC_TSAN_FIBERS)
  __tsan_switch_to_fiber(
      to >= 0 ? fibers_[static_cast<size_t>(to)].tsan : main_tsan_, 0);
#endif
#if defined(PMC_ASAN_FIBERS)
  const StackBounds dest =
      to >= 0 ? StackBounds{fibers_[static_cast<size_t>(to)].stack.get(),
                            kFiberStackBytes}
              : host_stack();
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(from_dies ? nullptr : &fake_stack,
                                 dest.bottom, dest.size);
#else
  (void)from_dies;
#endif
  pmc_fiber_switch(&from_sp, target_sp);
#if defined(PMC_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Scheduler::maybe_checkpoint_yield(int core) {
  if (hook_ == nullptr || step_ >= free_step_) return;
  if (!hook_->wants_checkpoint(step_, static_cast<int>(ready_.size()))) return;
  resume_core_ = core;
  switch_to(fibers_[static_cast<size_t>(core)].sp, /*to=*/-1);
  // Restored snapshots re-enter here — after the wants_checkpoint() test —
  // so the checkpoint that produced them is never re-offered.
  resume_core_ = -1;
}

void Scheduler::fiber_main(int core) {
  {
    std::exception_ptr error;
    try {
      body_(core);
    } catch (...) {
      error = std::current_exception();
    }
    // Completion and failure wait for the core's turn like a shared effect,
    // so the first error recorded is the eager schedule's. The settle runs
    // outside the handler: a fiber switch inside one would interleave the
    // cores' entries on the thread's caught-exception stack.
    settle(core);
    if (error && !error_) error_ = std::move(error);
  }
  slots_[core].done = true;
  remove_ready(core);
  // A core's completion is a decision point, and a checkpointable one
  // (children of an explored schedule may branch here). The consult is
  // guarded: a policy throw must not escape a fiber with no frame to unwind
  // into.
  maybe_checkpoint_yield(core);
  int next = -1;
  try {
    next = next_core(core);
  } catch (...) {
    if (!error_) error_ = std::current_exception();
    next = pick_next();
  }
  if (tracing()) trace_switch(core, next, /*from_done=*/true);
  if (next != -1) {
    ++handoffs_;
    current_ = next;
  }
  switch_to(fibers_[static_cast<size_t>(core)].sp, next, /*from_dies=*/true);
  // Unreachable: a done fiber is never re-dispatched, and restore()
  // overwrites its context wholesale.
}

void Scheduler::drive() {
#if defined(PMC_TSAN_FIBERS)
  main_tsan_ = __tsan_get_current_fiber();
#endif
  for (;;) {
    switch_to(main_sp_, current_);
    if (all_done()) break;
    // A live fiber parked for a checkpoint: snapshot on this (main) context,
    // then hand control straight back to it.
    hook_->on_checkpoint(step_);
  }
  if (policy_ != nullptr) policy_->on_run_end(step_);
  if (error_) std::rethrow_exception(error_);
}

void Scheduler::resume() {
  PMC_CHECK_MSG(!fibers_.empty(), "resume() needs a prior run()");
  tl_fiber_sched = this;
  start_observing();
  if (resume_core_ == -1) {
    // Pre-dispatch snapshot: redo the initial consult (the hook is not
    // re-offered — the restored pool already holds this checkpoint). The
    // restored recorder predates the original initial-dispatch event, so
    // re-recording it here reproduces the original buffer exactly.
    current_ = next_core(/*yielding=*/-1);
    if (tracing()) trace_switch(-1, current_, false);
  }
  drive();
}

void Scheduler::snapshot(Snapshot& s) const {
  PMC_CHECK_MSG(!fibers_.empty(), "snapshot() needs a prior run()");
  s.slots.resize(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& sl = slots_[i];
    // Only free-running stretches defer, and they never reach a checkpoint.
    PMC_CHECK_MSG(!sl.stale, "snapshot() of core " << i
                                 << " with deferred advances pending");
    Snapshot::SlotState& out = s.slots[i];
    out.time = sl.time;
    out.warped = sl.warped;
    out.done = sl.done;
  }
  s.step = step_;
  s.frontier = frontier_;
  s.current = current_;
  s.resume_core = resume_core_;
  s.error = error_;
  s.fibers.resize(fibers_.size());
  for (size_t i = 0; i < fibers_.size(); ++i) {
    const Fiber& f = fibers_[i];
    Snapshot::FiberImage& img = s.fibers[i];
    img.sp = f.sp;
    if (slots_[i].done) {
      // A finished fiber is never re-entered, so its stack is dead. Its
      // last frames hold uninitialized slots whose bytes depend on what
      // ran there before, which digests must not see.
      img.stack_off = kFiberStackBytes;
      img.dead_bytes = 0;
      img.stack = std::vector<uint8_t>();  // a recycled image's buffer too
      continue;
    }
    // The saved SP always lies inside the stack: init_fibers() sets it and
    // every switch out of the fiber rewrites it.
    const uintptr_t base = reinterpret_cast<uintptr_t>(f.stack.get());
    const uintptr_t sp = reinterpret_cast<uintptr_t>(f.sp);
    const uintptr_t lo = std::max(sp - kStackSliceMargin, base);
    img.stack_off = static_cast<size_t>(lo - base);
    img.dead_bytes = static_cast<size_t>(sp - lo);
    // Parked frames keep their ASan redzones poisoned; the copy reads them.
    unpoison(f.stack.get() + img.stack_off, kFiberStackBytes - img.stack_off);
    // Exact-size images: a recycled snapshot keeping a deeper state's stack
    // capacity would cost a snapshot pool about a quarter more memory.
    if (img.stack.capacity() > kFiberStackBytes - img.stack_off) {
      img.stack = std::vector<uint8_t>();
    }
    img.stack.assign(f.stack.get() + img.stack_off,
                     f.stack.get() + kFiberStackBytes);
  }
}

void Scheduler::restore(const Snapshot& s) {
  PMC_CHECK_MSG(!fibers_.empty() && s.slots.size() == slots_.size() &&
                    s.fibers.size() == fibers_.size(),
                "snapshot does not fit this scheduler");
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& sl = slots_[i];
    sl.time = s.slots[i].time;
    sl.warped = s.slots[i].warped;
    sl.done = s.slots[i].done;
    sl.deferring = false;
    sl.stale = false;
  }
  step_ = s.step;
  frontier_ = s.frontier;
  current_ = s.current;
  resume_core_ = s.resume_core;
  error_ = s.error;
  rebuild_ready();
#if defined(PMC_TSAN_FIBERS)
  void* const self = __tsan_get_current_fiber();
#endif
  for (size_t i = 0; i < fibers_.size(); ++i) {
    Fiber& f = fibers_[i];
    // Same-object restore keeps the saved SP pointing into this very stack.
    f.sp = s.fibers[i].sp;
    unpoison(f.stack.get(), kFiberStackBytes);
    if (!s.fibers[i].stack.empty()) {
      std::memcpy(f.stack.get() + s.fibers[i].stack_off,
                  s.fibers[i].stack.data(), s.fibers[i].stack.size());
    }
#if defined(PMC_TSAN_FIBERS)
    // The fiber's TSan context describes the abandoned stack: start a fresh
    // one, padded so the restored frames can return without underflowing.
    __tsan_destroy_fiber(f.tsan);
    f.tsan = __tsan_create_fiber(0);
    __tsan_switch_to_fiber(f.tsan, __tsan_switch_to_fiber_no_sync);
    for (int pad = 0; pad < kTsanShadowPad; ++pad) {
      __tsan_func_entry(__builtin_return_address(0));
    }
    __tsan_switch_to_fiber(self, __tsan_switch_to_fiber_no_sync);
#endif
  }
}

}  // namespace pmc::sim
