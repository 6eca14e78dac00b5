// Program: the top-level assembly a PMC application runs in.
//
// Owns the machine (for simulated targets), the distributed locks, the
// object space, the barrier, the back-end, and — when validation is on —
// the recorded trace and its Definition 12 check. The same Program API
// drives the host target plus every registered back-end, so "porting to
// hardware with another memory model becomes just a compiler setting" is
// here literally one enum.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/trace.h"
#include "runtime/backend.h"
#include "runtime/env.h"
#include "runtime/host.h"
#include "runtime/sim_env.h"

namespace pmc::rt {

/// kHostSC plus one entry per registered back-end, in registry order
/// (Target value = BackendKind value + 1; static_asserted in program.cpp).
enum class Target : uint8_t { kHostSC, kNoCC, kSWCC, kDSM, kSPM, kRegC,
                              kShL1 };

const char* to_string(Target t);
/// Inverse of to_string ("host-sc" or any registered back-end name), or
/// std::nullopt for anything else. Simulated names go through
/// backend_from_string so the two stay in lockstep.
std::optional<Target> target_from_string(std::string_view name);
bool is_sim(Target t);
/// Host target plus every registered back-end, for parameterized suites.
std::vector<Target> all_targets();
std::vector<Target> sim_targets();
/// The back-end a simulated target runs (throws for kHostSC).
BackendKind backend_kind(Target t);

struct ProgramOptions {
  Target target = Target::kSWCC;
  int cores = 4;
  /// Base machine configuration for simulated targets; num_cores and
  /// cache_shared are overridden to match `cores` and `target`.
  sim::MachineConfig machine = sim::MachineConfig::ml605(4);
  /// Record a model trace and validate it after run() (sim targets only).
  bool validate = true;
  /// Maximum number of shared objects (= locks).
  int lock_capacity = 2048;
  /// Deliberate protocol bugs (failure-injection tests).
  FaultInjection faults;
  /// Implementation choices (lazy vs eager release, §V-A).
  BackendPolicy policy;
  /// Scheduling-decision override for schedule exploration (sim targets
  /// only; not owned, must outlive run()). nullptr keeps the default
  /// bit-deterministic min-time schedule.
  sim::SchedulePolicy* schedule_policy = nullptr;
  /// Cycle-accurate event recorder (sim targets only; not owned, must
  /// outlive run()). nullptr leaves tracing detached — the zero-overhead
  /// default. See src/obs/trace.h and DESIGN.md §11.
  obs::TraceRecorder* trace = nullptr;
  /// Inert: simulated cores always run as fibers now. Kept only because
  /// bench/pmcbench/workloads.cpp still sets it and that package changes
  /// only together with the repo benchmark; nothing reads it.
  bool fiber_execution = false;
};

/// Exact-trace memo of a run's judgement (DESIGN.md §10): maps a recorded
/// trace — every event's (kind, proc, loc, value), LEB128-encoded into one
/// byte string — to its Definition 12 verdict and its hb trace hash. A hash
/// of the key picks the bucket and full key equality decides, so a hit is
/// the verdict the validator would rebuild. Valid only for one (cores,
/// objects) shape: one per StatefulExecutor, whose Program never changes
/// shape. Not thread-safe.
class TraceMemo {
 public:
  struct Entry {
    model::TraceVerdict verdict;
    /// Filled by the first judge that asks (explore::judge_run).
    std::optional<uint64_t> hb_hash;
  };

  /// The entry of `trace`, or nullptr on first sight; counts a hit or a
  /// miss.
  Entry* find(const std::vector<model::TraceEvent>& trace);
  /// Records the verdict of a trace find() missed.
  Entry& add(const std::vector<model::TraceEvent>& trace,
             model::TraceVerdict verdict);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  /// Encodes `trace` into key_ (reused, so a lookup allocates nothing).
  const std::string& encode(const std::vector<model::TraceEvent>& trace);

  std::unordered_map<std::string, Entry> entries_;
  std::string key_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

class Program {
 public:
  explicit Program(const ProgramOptions& opts);
  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  Target target() const { return opts_.target; }
  int cores() const { return opts_.cores; }

  ObjId create_object(uint32_t size, Placement placement = Placement::kSdram,
                      std::string name = "", bool immutable = false);
  /// Immutable shared data (no writers, readers never lock or serialize).
  ObjId create_const_object(uint32_t size,
                            Placement placement = Placement::kSdram,
                            std::string name = "") {
    return create_object(size, placement, std::move(name), true);
  }
  void init_object(ObjId id, const void* data, size_t n);
  template <typename T>
  ObjId create_typed(const T& initial, Placement placement = Placement::kSdram,
                     std::string name = "") {
    const ObjId id = create_object(sizeof(T), placement, std::move(name));
    init_object(id, &initial, sizeof(T));
    return id;
  }

  /// Runs body(env) on every core/thread.
  void run(const std::function<void(Env&)>& body);

  // -- Stateful exploration (snapshot engine, DESIGN.md §10) -----------------

  /// Checkpoint callback, forwarded to the scheduler.
  void set_checkpoint_hook(sim::CheckpointHook* hook);
  /// Swaps the scheduling policy between restore()/resume() cycles.
  void set_schedule_policy(sim::SchedulePolicy* policy);
  /// Exact-trace memo every later validation consults first (not owned,
  /// must outlive the Program's runs). nullptr — the default — validates
  /// every run afresh.
  void set_trace_memo(TraceMemo* memo) { memo_ = memo; }

  /// Deep copy of one mid-run (or completed) program state: the whole
  /// machine plus the runtime-held model trace.
  struct Snapshot {
    sim::Machine::Snapshot m;
    std::vector<model::TraceEvent> trace;
  };
  /// Fills `s`, reusing its buffers.
  void snapshot(Snapshot& s) const;
  Snapshot snapshot() const {
    Snapshot s;
    snapshot(s);
    return s;
  }
  void restore(const Snapshot& s);
  /// Continues a restored machine to completion (rethrows the body's
  /// exception like run()), then revalidates the trace.
  void resume();

  /// Reads an object's final payload after run().
  void read_object(ObjId id, void* out, size_t n);
  template <typename T>
  T result(ObjId id) {
    T v;
    read_object(id, &v, sizeof v);
    return v;
  }

  /// nullptr for the host target.
  sim::Machine* machine() { return machine_.get(); }
  sim::CoreStats stats_sum() const;
  /// nullptr unless a validated sim run completed.
  const model::TraceVerdict* verdict() const {
    return verdict_ ? &*verdict_ : nullptr;
  }
  /// The memo entry of the last validated run's trace; nullptr without a
  /// memo.
  TraceMemo::Entry* memo_entry() { return memo_entry_; }
  /// nullptr unless a validated sim run completed. After a memo hit the
  /// graph is rebuilt from the trace on first request.
  const model::TraceValidator* validator() const;
  /// The recorded model trace (empty unless a validated sim run completed).
  const std::vector<model::TraceEvent>& trace() const { return rt_.trace; }
  /// Throws CheckFailure describing the first Definition 12 violation.
  void require_valid() const;

 private:
  ProgramOptions opts_;
  // Simulated targets:
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<sync::DistLockManager> locks_;
  std::unique_ptr<ObjectSpace> objs_;
  std::unique_ptr<sync::Barrier> barrier_;
  std::unique_ptr<Backend> backend_;
  SimRuntime rt_;
  TraceMemo* memo_ = nullptr;
  TraceMemo::Entry* memo_entry_ = nullptr;
  std::optional<model::TraceVerdict> verdict_;
  mutable std::unique_ptr<model::TraceValidator> validator_;
  // Host target:
  std::unique_ptr<HostSpace> host_;
  std::function<void(Env&)> body_;  // persists for restored-fiber re-entry
  bool ran_ = false;

  void run_sim(const std::function<void(Env&)>& body);
  void revalidate();
  std::unique_ptr<model::TraceValidator> build_validator() const;
};

}  // namespace pmc::rt
