// One front door for model checking heterogeneous workloads (DESIGN.md §9).
//
// A CheckTarget is anything the explorer can model-check: it describes a
// fresh rt::Program for one back-end as a StatefulSpec, runs it under a
// ReplayPolicy, and judges the run with its own oracle plus the shared
// Definition 12 verdict. LitmusTarget drives the annotatable litmus subset,
// GenProgramTarget one generated fuzz program (one per back-end is the
// differential fuzzer), MFifoTarget / TaskCounterTarget the apps-layer
// kernels at small shapes, and FnTarget wraps an ad-hoc raw-machine runner.
// Targets that can shrink themselves (drop an op, keep the bug) expose
// shrink candidates, which is what turns "minimize the program, then the
// schedule" into a generic session step.
//
// A CheckSession owns the knobs every caller used to wire by hand — the
// ExploreConfig bounds, DPOR mode and worker count (--jobs) — and produces
// one canonical CheckReport per target: totals, the lexicographically least
// failing schedule, the shrunk target, and the minimized schedule on it.
// Targets with a StatefulSpec run on the snapshot engine (DESIGN.md §10);
// the rest re-execute every schedule from scratch. Every field of a
// CheckReport is a pure function of (target, SessionOptions); the job count
// never leaks in (absent truncation), and a stateless replay of the same
// target produces the same bytes — the determinism contract tests/explore/
// locks.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "explore/explorer.h"
#include "explore/program_gen.h"
#include "model/litmus.h"
#include "model/trace.h"
#include "obs/trace.h"
#include "runtime/program.h"

namespace pmc::explore {

/// Order-insensitive fingerprint of a recorded model trace: the hash of its
/// happens-before quotient rather than of the raw interleaved event order.
/// Each event hashes its content chained with its direct predecessors in the
/// dependence relation (program order; reads after the last write of their
/// location; writes after that location's last write and every read since;
/// acquire/release after the location's last acquire/release), and the
/// per-event hashes fold commutatively. Two schedules that differ only by
/// commuting independent events — exactly what DPOR prunes — therefore hash
/// identically, which makes `distinct_traces` a true behavior count.
/// Consecutive identical stale reads of one location by one processor (poll
/// loops spinning on an unchanged version) collapse to one event, so the
/// iteration count of a spin loop — pure timing — does not split classes.
uint64_t hb_trace_hash(const std::vector<model::TraceEvent>& trace);

/// The stateful decomposition of one CheckTarget run (DESIGN.md §10): the
/// snapshot engine builds the Program once, runs `body` under checkpointing
/// fibers, and re-judges after every restore/resume — so the three phases
/// that a classic run() interleaves must come apart cleanly.
///
/// Fiber-safety contract: `body` executes on checkpointable fiber stacks
/// whose bytes are memcpy'd on snapshot/restore, so it must keep only
/// trivially-copyable locals alive across runtime calls and reach all
/// run-mutable buffers through the heap-held state that make_spec()
/// allocated (never through captured run()-frame locals — those frames are
/// gone by the first resume). `setup` must register every such buffer the
/// body mutates with the machine's snapshot contract, or restored runs
/// would resume against torn oracle state.
struct StatefulSpec {
  /// Program configuration; `schedule_policy` is filled in per run.
  rt::ProgramOptions opts;
  /// Creates the shared objects / app structures and registers run-mutable
  /// host-side buffers. Called once per Program, before run.
  std::function<void(rt::Program&)> setup;
  /// The per-core workload; same contract as Program::run's body.
  std::function<void(rt::Env&)> body;
  /// Judges one completed run: folds the target's observable results onto
  /// the preset hb hash in `out.trace_hash` and applies its own oracle
  /// (judge_run adds the Definition 12 verdict). Called after every
  /// completed run or resume; must be repeatable.
  std::function<void(rt::Program&, RunOutcome&)> judge;
};

/// The verdict of one completed run of `spec`, shared by both paths: presets
/// `out.trace_hash` to the run's hb_trace_hash (memoized per exact trace
/// when the Program has a TraceMemo), calls spec.judge, then applies the
/// Definition 12 rule — a validator violation fails the run and its message
/// replaces the target's own oracle verdict.
void judge_run(const StatefulSpec& spec, rt::Program& prog, RunOutcome& out);

/// Executes one schedule of `spec` the stateless way: fresh Program, full
/// run, judge_run — converting exceptions into failing outcomes. This is
/// CheckTarget::run's default, so the stateless path and the snapshot
/// engine run literally the same code and differ only in how the machine
/// state at a decision point is reproduced.
RunOutcome run_spec_once(const StatefulSpec& spec, ReplayPolicy& policy);

/// One checkable unit: builds a fresh program for its back-end on every
/// run() call and judges the run. run() must be safe to invoke concurrently
/// from several threads (share nothing mutable — build the whole world
/// afresh per call) and must report oracle violations and exceptions as
/// failing RunOutcomes, never propagate them.
class CheckTarget {
 public:
  virtual ~CheckTarget() = default;

  /// Stable display name, e.g. "fig4_exclusive@dsm" or "mfifo(d2,r2,i2)@swcc".
  virtual std::string name() const = 0;

  /// Executes one schedule; the ReplayPolicy is the only scheduling input.
  /// Defaults to run_spec_once(make_spec(), policy).
  virtual RunOutcome run(ReplayPolicy& policy) const;

  /// Explorer adapter. Borrows `this`: the target must outlive the runner.
  ScheduleRunner runner() const {
    return [this](ReplayPolicy& p) { return run(p); };
  }

  // -- Stateful exploration ---------------------------------------------------
  /// True when make_spec() describes run(), i.e. the target's run
  /// decomposes into the StatefulSpec phases and its body honors the
  /// fiber-safety contract. Selects the session's path: the snapshot engine
  /// when true, stateless replay of run() otherwise (FnTarget).
  virtual bool stateful_capable() const { return true; }
  /// The stateful decomposition of run(); only valid when stateful_capable().
  /// Every call allocates fresh oracle state, so concurrent executors built
  /// from separate specs share nothing mutable.
  virtual StatefulSpec make_spec() const = 0;

  // -- Failure minimization (optional) ---------------------------------------
  /// Number of single-step reductions of this target (0: not shrinkable).
  virtual size_t shrink_count() const { return 0; }
  /// The `i`-th reduction candidate (i < shrink_count()), or nullptr when the
  /// reduction is structurally impossible. The candidate is a full target:
  /// the session re-explores it to decide whether the bug survived.
  virtual std::unique_ptr<CheckTarget> shrink(size_t i) const {
    (void)i;
    return nullptr;
  }
  /// Human-readable listing of the target's program (failure reports of
  /// minimized targets); empty when there is nothing useful to print.
  virtual std::string describe() const { return {}; }
};

/// Ad-hoc target wrapping a ScheduleRunner (raw-machine test programs). The
/// runner judges its own runs and has no StatefulSpec, so every schedule
/// re-executes it from scratch.
class FnTarget final : public CheckTarget {
 public:
  FnTarget(std::string name, ScheduleRunner fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  RunOutcome run(ReplayPolicy& policy) const override { return fn_(policy); }
  bool stateful_capable() const override { return false; }
  StatefulSpec make_spec() const override;

 private:
  std::string name_;
  ScheduleRunner fn_;
};

/// One (litmus test, back-end) target. Computes the model's reachable
/// outcome set once; run() executes a single schedule on a fresh Program
/// under the dual oracle (Definition 12 validator + outcome membership).
class LitmusTarget final : public CheckTarget {
 public:
  /// `machine`, when set, replaces the default exploration machine shape
  /// (timing, cache, NoC contention model — e.g. a MachineConfig::from_file
  /// description); the core count still follows the test. Unset keeps the
  /// compact ml605-derived shape whose reports are the byte-equality
  /// baseline.
  LitmusTarget(model::LitmusTest test, rt::Target target,
               rt::FaultInjection faults = {},
               std::optional<sim::MachineConfig> machine = std::nullopt);

  const model::LitmusTest& test() const { return test_; }
  rt::Target target() const { return target_; }
  size_t allowed_outcomes() const { return allowed_.size(); }
  /// DSM runs with eager release iff the test polls: a lazy-release replica
  /// is never refreshed without an acquire, so an unsynchronized poll loop
  /// would spin forever (the "slow reads" the paper permits, §IV-D).
  bool dsm_eager() const { return has_poll_; }

  std::string name() const override;
  StatefulSpec make_spec() const override;

 private:
  model::LitmusTest test_;
  rt::Target target_;
  rt::FaultInjection faults_;
  std::optional<sim::MachineConfig> machine_;
  bool has_poll_ = false;
  std::set<model::Outcome> allowed_;
};

/// One (generated fuzz program, back-end) target under the dual oracle
/// (Definition 12 validator + closed-form final state). Shrinkable: each
/// candidate drops one op (dropping a barrier drops it from every thread).
class GenProgramTarget final : public CheckTarget {
 public:
  GenProgramTarget(GenProgram prog, rt::Target target,
                   rt::FaultInjection faults = {});

  const GenProgram& program() const { return prog_; }
  rt::Target target() const { return target_; }

  std::string name() const override;
  StatefulSpec make_spec() const override;
  size_t shrink_count() const override;
  std::unique_ptr<CheckTarget> shrink(size_t i) const override;
  std::string describe() const override { return to_string(prog_); }

 private:
  GenProgram prog_;
  rt::Target target_;
  rt::FaultInjection faults_;
};

// -- Apps-layer targets (ROADMAP "Apps-layer model checking") ----------------

/// Small explorable shape of the Fig. 9 FIFO: one writer pushing `items`
/// tagged elements through a depth-`depth` buffer to `readers` readers.
struct MFifoShape {
  uint32_t depth = 2;
  int readers = 2;
  uint32_t items = 2;
};

/// apps::MFifo under the broadcast-delivery oracle: every reader must
/// receive every element, in push order, on every explored schedule (plus
/// the Definition 12 validator). Polls both pointer kinds, so DSM runs with
/// eager release like every polling litmus test.
class MFifoTarget final : public CheckTarget {
 public:
  explicit MFifoTarget(rt::Target target, MFifoShape shape = {},
                       rt::FaultInjection faults = {});
  std::string name() const override;
  StatefulSpec make_spec() const override;

 private:
  rt::Target target_;
  MFifoShape shape_;
  rt::FaultInjection faults_;
};

/// Small explorable shape of the dynamic work-distribution counter:
/// `cores` workers grabbing chunks of `chunk` items from `total`.
struct TaskCounterShape {
  int cores = 2;
  uint32_t total = 3;
  uint32_t chunk = 1;
};

/// apps::TaskCounter under the exact-chunk-partition oracle: the chunks all
/// cores grab must tile [0, total) exactly — no gap, no overlap, no chunk
/// larger than `chunk` — on every explored schedule (plus the validator).
class TaskCounterTarget final : public CheckTarget {
 public:
  explicit TaskCounterTarget(rt::Target target, TaskCounterShape shape = {},
                             rt::FaultInjection faults = {});
  std::string name() const override;
  StatefulSpec make_spec() const override;

 private:
  rt::Target target_;
  TaskCounterShape shape_;
  rt::FaultInjection faults_;
};

enum class AppKind { kMFifo, kTaskCounter };
const char* to_string(AppKind kind);
/// "mfifo" | "taskcounter"; nullopt on anything else.
std::optional<AppKind> app_kind_from_string(std::string_view text);
std::vector<AppKind> all_app_kinds();
/// The canonical small-shape app target the CLI, bench, and CI drive.
std::unique_ptr<CheckTarget> make_app_target(AppKind kind, rt::Target target,
                                             rt::FaultInjection faults = {});

// -- The session facade ------------------------------------------------------

struct SessionOptions {
  ExploreConfig explore;
  /// Exploration workers (the caller's thread plus jobs − 1 helpers); < 1
  /// is clamped to 1. Every CheckReport field is job-count-invariant
  /// (absent truncation); at jobs = 1 the telemetry is deterministic too.
  int jobs = 1;
};

/// Wall-clock and engine observability of one check() call. Everything in
/// here is telemetry: timing-, path-, and job-count-dependent, and
/// therefore excluded from CheckReport::to_text (which stays byte-identical
/// across job counts and against stateless replay). to_json() carries it
/// for dashboards and bench harnesses.
struct SessionTelemetry {
  double explore_seconds = 0;
  double schedules_per_sec = 0;
  /// Accepted single-step target reductions during shrinking.
  uint64_t shrink_rounds = 0;
  // Snapshot-engine counters (ExploreReport passthrough); all zero for
  // targets that are not stateful_capable().
  uint64_t snapshots_taken = 0;
  uint64_t snapshot_hits = 0;
  uint64_t snapshot_misses = 0;
  // Exact-trace judge memo counters (ExploreReport passthrough).
  uint64_t judge_memo_hits = 0;
  uint64_t judge_memo_misses = 0;
  /// Successful steals per worker (one entry per job).
  std::vector<uint64_t> worker_steals;
  /// hb-class discovery curve (ExploreReport::hb_curve passthrough).
  std::vector<uint64_t> hb_curve;
};

/// Canonical result of CheckSession::check. Deliberately excludes the
/// wall-clock-ish schedules_to_first_failure (use CheckSession::explore for
/// it): every field except `telemetry` is deterministic for
/// (target, options).
struct CheckReport {
  std::string target;
  uint64_t explored = 0;
  uint64_t pruned = 0;
  uint64_t dpor_pruned = 0;
  uint64_t distinct_traces = 0;
  uint64_t failing = 0;
  uint64_t max_decision_points = 0;
  bool truncated = false;
  bool ok = true;

  /// Lexicographically least failing schedule of the original target and
  /// its verdict (meaningful iff failing > 0).
  DecisionString first_failing;
  std::string first_failing_message;
  /// first_failing minimized against the *original* target — the only
  /// schedule a caller can replay without the shrunk target in hand, so
  /// this is what repro lines must print.
  DecisionString repro_schedule;
  /// The greedily shrunk target (nullptr when the target is not shrinkable,
  /// nothing was droppable, or the run truncated), its listing, and the
  /// failing schedule minimized against it.
  std::shared_ptr<const CheckTarget> minimized_target;
  std::string minimized_listing;
  DecisionString minimized_schedule;
  std::string minimized_message;

  /// Every distinct hb-class hash of the explored space, sorted ascending.
  /// Deterministic for (target, options) like the other non-telemetry fields — the fixed
  /// schedule tree visits the same classes at every job count and under
  /// stateless replay — but excluded from to_text(), whose byte layout
  /// predates the field.
  std::vector<uint64_t> trace_hashes;

  /// Session observability; the only non-deterministic field.
  SessionTelemetry telemetry;

  /// Canonical multi-line rendering; byte-identical across job counts and
  /// against stateless replay (absent truncation) — what the determinism
  /// suites compare. Excludes `telemetry` entirely.
  std::string to_text() const;
  /// One-line JSON rendering of the deterministic fields plus a
  /// "telemetry" block, built on the obs::MetricsRegistry export.
  std::string to_json() const;
};

/// Owns the bounds, DPOR mode, worker count, and failure minimization — the
/// one front door to the exploration stack. Cheap to construct; check()
/// borrows the target only for the duration of the call.
class CheckSession {
 public:
  explicit CheckSession(SessionOptions opts);
  CheckSession(const ExploreConfig& cfg, int jobs = 1)
      : CheckSession(SessionOptions{cfg, jobs}) {}

  const SessionOptions& options() const { return opts_; }

  /// The full pipeline: explore the bounded space; on failure canonicalize
  /// (lexicographic minimum), shrink the target program-then-schedule where
  /// it supports shrinking (skipped when truncated — which schedules a
  /// truncated run covers is timing-dependent, so re-exploration-based
  /// shrinking would be neither deterministic nor sound), and minimize.
  CheckReport check(const CheckTarget& target) const;

  // -- Building blocks (the only sanctioned route to the Explorer) -----------
  // Raw-machine runners reach them wrapped in an FnTarget.
  ExploreReport explore(const CheckTarget& target) const;
  /// Runs one schedule once, from a fresh Program and without snapshots.
  /// When `fully_applied` is non-null it reports whether every override
  /// matched a decision step — false means the string is stale (wrong
  /// program/back-end/horizon, or shifted steps) and the outcome describes
  /// some other schedule. A non-null `recorder` is attached to the machine
  /// through the target's make_spec(), so targets that are not
  /// stateful_capable() run untraced — the verdict is still correct, the
  /// recorder just stays empty. The recorded events are a pure function of
  /// (target, schedule): byte-identical across job counts, which
  /// tests/explore/test_trace_determinism.cpp locks.
  RunOutcome replay(const CheckTarget& target, const DecisionString& schedule,
                    bool* fully_applied = nullptr,
                    obs::TraceRecorder* recorder = nullptr) const;
  DecisionString minimize(const CheckTarget& target,
                          DecisionString failing) const;

 private:
  SessionOptions opts_;
};

}  // namespace pmc::explore
