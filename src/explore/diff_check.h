// Cross-back-end differential fuzzing of generated programs (DESIGN.md §7).
//
// One generated lock-disciplined program is model-checked on every Table II
// back-end through the CheckSession pipeline (explore/check.h): the session
// enumerates preemption-bounded schedules of a GenProgramTarget, and every
// single run must satisfy the dual oracle
//
//  1. the Definition 12 trace validator (the formal model per schedule), and
//  2. final-state agreement — every object's final value equals the
//     generator's closed form, which all back-ends share, so any two
//     back-ends disagreeing (on any schedule) is caught as at least one of
//     them diverging from the closed form.
//
// On failure the session shrinks the *program* first (greedy op dropping
// via GenProgramTarget::shrink, re-exploring after each candidate drop),
// then the *decision string*, and DiffCheck renders the one-command repro
// line every fuzz assertion embeds. DiffCheck itself is a thin adapter:
// target construction, engine selection, and minimization all live in the
// session.
#pragma once

#include <optional>
#include <string>

#include "explore/check.h"
#include "explore/program_gen.h"
#include "runtime/program.h"

namespace pmc::explore {

struct DiffFailure {
  rt::Target target = rt::Target::kNoCC;
  GenProgram program;       // 1-minimal: dropping any single op hides the bug
  DecisionString schedule;  // 1-minimal w.r.t. the minimized program
  std::string message;      // oracle verdict of replaying `schedule`
  std::string repro;        // PMC_FUZZ_SEEDS=… ctest -R … + step:choice replay
};

struct DiffReport {
  // Summed over the back-ends (each is deterministic for a fixed program
  // and bounds, so these totals are job-count-independent).
  uint64_t explored = 0;
  uint64_t pruned = 0;
  uint64_t distinct_traces = 0;
  bool truncated = false;
  bool ok = true;
  /// The failure on the first back-end (in sim_targets() order) that has
  /// one; minimized and replayable.
  std::optional<DiffFailure> failure;
};

class DiffCheck {
 public:
  /// `faults` seeds deliberate protocol bugs (each back-end reads only its
  /// own flag), which the fuzzer must then find — the self-test mode.
  explicit DiffCheck(GenProgram prog, rt::FaultInjection faults = {});

  const GenProgram& program() const { return prog_; }

  /// The CheckTarget for one back-end (a fresh GenProgramTarget).
  std::unique_ptr<CheckTarget> target(rt::Target t) const;

  /// Explores each of `targets` (default: every simulated back-end) under
  /// `cfg` with `jobs` workers; on the first failing back-end, minimizes
  /// program then schedule and fills in the repro line. Deterministic for
  /// fixed inputs at any job count.
  DiffReport check(const ExploreConfig& cfg, int jobs = 1,
                   const std::vector<rt::Target>& targets =
                       rt::sim_targets()) const;

  /// Same, but with the full session configuration — callers that pick the
  /// engine state (SessionOptions::engine_state) land here.
  DiffReport check(const SessionOptions& opts,
                   const std::vector<rt::Target>& targets =
                       rt::sim_targets()) const;

 private:
  GenProgram prog_;
  rt::FaultInjection faults_;
};

/// The exact repro line fuzz assertions must print (ISSUE satellite): how to
/// re-run the failing seed under ctest, and how to replay the failing
/// schedule directly. When `faults` injects anything, the replay command
/// carries --seed-bug so the CLI re-injects it.
std::string repro_line(const ProgramShape& shape, rt::Target target,
                       const DecisionString& schedule,
                       const rt::FaultInjection& faults = {});

}  // namespace pmc::explore
