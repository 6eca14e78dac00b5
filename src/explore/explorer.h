// Preemption-bounded schedule exploration (DESIGN.md §6/§7) with optional
// happens-before dynamic partial-order reduction (DESIGN.md §8).
//
// The Explorer enumerates interleavings of one deterministic simulated
// program: each schedule is a decision string, the runner executes it under
// a ReplayPolicy, and the recorded candidate counts of the parent run
// (identical prefix ⇒ identical decisions) let the Explorer enumerate all
// child schedules exactly. The Explorer is agnostic to how the runner
// reproduces a prefix: a stateful target's runner forks it from machine
// snapshots (DESIGN.md §10), a stateless one re-runs the whole program.
// The search is bounded by a preemption budget (max overrides per schedule)
// and a horizon (only the first H decision points may branch), in the style
// of CHESS-like systematic concurrency testing; delay-segment pruning skips
// preemptions of segments that provably performed no memory-system effect.
//
// One engine at any worker count: the frontier of decision-string prefixes
// still to expand is sharded over `jobs` workers with per-worker
// work-stealing deques. Owners pop newest-first, which keeps the search
// depth-first and the frontier small; thieves steal oldest-first, which
// hands them the largest unexplored subtrees. Worker 0 runs on the calling
// thread and only jobs − 1 threads are spawned, so jobs = 1 is a plain
// depth-first search on the caller with a fixed traversal order.
//
// DPOR collapses the remaining commuting reorderings: a branch (p, c) is
// generated only when the bypassed candidate's pending segment *conflicts*
// with the segment the default pick runs at p, and per-node sleep sets stop
// a commuted pair of alternatives from being explored from both sides. The
// reduction is a pure function of the parent's deterministic run, and a
// frontier entry carries its sleep set when stolen, so the reduced space is
// still a fixed tree.
//
// Determinism: because the tree is fixed, `explored`, `pruned`,
// `dpor_pruned`, `failing` and `distinct_traces` are identical for every
// job count (absent truncation), and the reported failure is canonicalized
// to the lexicographically least failing decision string — so reports are
// byte-identical run to run and job count to job count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "explore/decision.h"
#include "explore/replay_policy.h"

namespace pmc::explore {

/// Partial-order-reduction level (ExploreConfig::dpor, CLI --dpor=).
enum class DporMode {
  kOff,       // enumerate every bounded schedule (the reduction's oracle)
  kSleepSet,  // branch only on dependent candidates, plus per-node sleep sets
};

const char* to_string(DporMode mode);
/// "off" | "sleepset"; nullopt on anything else.
std::optional<DporMode> dpor_mode_from_string(std::string_view text);

/// Live exploration counters handed to ExploreConfig::progress. All values
/// are monotone totals as of the callback. At jobs = 1 the sequence of
/// updates is deterministic; with more workers each update is a snapshot of
/// counters the other workers keep advancing.
struct ProgressUpdate {
  uint64_t explored = 0;
  uint64_t pruned = 0;
  uint64_t dpor_pruned = 0;
  uint64_t failing = 0;
  uint64_t distinct_traces = 0;
};

struct ExploreConfig {
  /// Maximum overrides per schedule (preemption bound).
  int preemption_bound = 2;
  /// Only the first `horizon` scheduling decisions may branch.
  uint64_t horizon = 24;
  /// Hard cap on executed schedules; hitting it sets `truncated`.
  uint64_t max_schedules = 50'000;
  /// Skip preemptions of pure-delay segments (compute/idle backoff): moving
  /// such a segment across the preempting core's operations cannot change
  /// which values any read observes, only clock skews that the frontier warp
  /// re-applies anyway. A pruned schedule is counted, not run; its deeper
  /// extensions are not enumerated (bounded-search trade-off, DESIGN.md §6).
  bool prune_delay = true;
  /// Happens-before dynamic partial-order reduction (DESIGN.md §8). Off by
  /// default: reduction skips schedules that are Mazurkiewicz-equivalent to
  /// explored ones, so counts shrink while the set of distinct failures
  /// (after minimization) stays the same.
  DporMode dpor = DporMode::kOff;
  /// Telemetry-only progress callback, invoked every 64 completed
  /// schedules plus once when the space is exhausted. It runs on
  /// whichever worker crosses the stride, so with jobs > 1 the callback
  /// must be thread-safe; it never affects the explored tree.
  using ProgressFn = std::function<void(const ProgressUpdate&)>;
  ProgressFn progress;
};

/// Verdict of one schedule, produced by the runner.
struct RunOutcome {
  bool ok = true;
  std::string message;      // first violation when !ok
  uint64_t trace_hash = 0;  // fingerprint of the observable behavior
};

/// Runs the program once under `policy` (construct everything fresh, install
/// the policy, run, validate) and reports the verdict.
using ScheduleRunner = std::function<RunOutcome(ReplayPolicy& policy)>;

struct ExploreReport {
  uint64_t explored = 0;  // schedules executed
  uint64_t pruned = 0;    // schedules enumerated but skipped by delay pruning
  /// Schedules skipped because DPOR proved them equivalent to an explored
  /// representative (independent-candidate branches + sleep-set hits).
  uint64_t dpor_pruned = 0;
  bool truncated = false;
  uint64_t distinct_traces = 0;
  uint64_t failing = 0;
  /// The lexicographically least failing decision string seen (meaningful
  /// iff failing > 0). Canonicalizing to the lexicographic minimum makes
  /// reports byte-identical across job counts (absent truncation).
  DecisionString first_failing;
  std::string first_failing_message;
  /// Schedules executed up to and including the temporally first failing one
  /// (0 when nothing failed) — the "time to find" a seeded bug; `explored`
  /// keeps counting to the end of the bounded space. Deterministic at
  /// jobs = 1; with more workers it depends on thread timing.
  uint64_t schedules_to_first_failure = 0;
  uint64_t max_decision_points = 0;  // longest run observed
  /// Every failing decision string, sorted by lex_less.
  std::vector<DecisionString> failing_schedules;
  /// Snapshot-engine observability, filled in by CheckSession::explore
  /// (all zero for targets that are not stateful_capable()): checkpoints
  /// captured, schedules forked from a mid-run snapshot, and schedules that
  /// fell back to the pinned root snapshot. Deterministic at jobs = 1.
  /// Deliberately excluded from CheckReport::to_text — reports stay
  /// byte-identical to a stateless replay of the same target.
  uint64_t snapshots_taken = 0;
  uint64_t snapshot_hits = 0;
  uint64_t snapshot_misses = 0;
  /// Judge-memo observability, filled in like the snapshot counters:
  /// schedules whose exact trace an executor had already judged, and
  /// schedules it validated afresh. Deterministic at jobs = 1; per-worker
  /// memos make both depend on the job count.
  uint64_t judge_memo_hits = 0;
  uint64_t judge_memo_misses = 0;
  /// hb-class discovery curve: distinct trace hashes seen after 1, 2, 4,
  /// ... explored schedules, closed on `distinct_traces`. Deterministic at
  /// jobs = 1; with more workers the inner samples depend on the traversal
  /// order, hence on thread timing. Telemetry-only, excluded from
  /// CheckReport::to_text like the snapshot counters.
  std::vector<uint64_t> hb_curve;
  /// Every distinct hb-class hash seen, sorted ascending. The schedule tree
  /// is a fixed function of (program, bounds), so the set is identical
  /// across job counts and execution paths (absent truncation): the
  /// coverage signal the fuzzing farm's corpus keys on (DESIGN.md §14), and
  /// the contract tests/explore/test_hb_stability.cpp locks.
  std::vector<uint64_t> trace_hashes;
  /// Successful steals per worker (one entry per job). Telemetry-only.
  std::vector<uint64_t> worker_steals;
};

class Explorer {
 public:
  /// Builds one runner per worker that needs one. Stateful runners
  /// (StatefulExecutor, explore/stateful.h) keep a live Program and a
  /// snapshot pool between invocations, so they cannot be shared across
  /// workers: the factory gives every worker — and every minimize round's
  /// evaluator — a private instance. Worker 0's runner is built on the
  /// calling thread. The factory itself must be thread-safe; the runners it
  /// returns need not be. A runner may own its executor (e.g. via a
  /// captured shared_ptr) — it is dropped when its worker finishes.
  using RunnerFactory = std::function<ScheduleRunner()>;
  /// `jobs` < 1 is clamped to 1.
  Explorer(RunnerFactory factory, int jobs);
  /// Shares `runner` among all workers, so with jobs > 1 it must be safe to
  /// invoke concurrently: each invocation builds its whole world (Machine,
  /// Program, policy) afresh and shares nothing mutable — which every
  /// CheckTarget::run (explore/check.h) satisfies by construction.
  explicit Explorer(ScheduleRunner runner, int jobs = 1);

  int jobs() const { return jobs_; }

  /// Depth-first enumeration of all schedules within the bounds, over
  /// `jobs` workers. With jobs > 1, schedules_to_first_failure, hb_curve and
  /// the progress stream depend on thread timing (the totals and the
  /// canonical failing string do not); when truncated, *which* schedules
  /// ran does too, so only explored (== max_schedules) is meaningful.
  ExploreReport explore(const ExploreConfig& cfg);

  /// Greedy 1-minimal reduction of a failing schedule: repeatedly drops the
  /// lowest-index single override whose removal keeps the failure, until
  /// none can go. Each round's candidates are evaluated by up to `jobs`
  /// workers; the result is independent of the job count, and at jobs = 1
  /// the replays are exactly those of a sequential first-accept scan. A
  /// candidate only counts as "still failing" when all its overrides
  /// applied — a replay-mismatch abort is not the bug recurring.
  DecisionString minimize(DecisionString failing, uint64_t horizon);

 private:
  RunnerFactory factory_;
  int jobs_;
};

}  // namespace pmc::explore
