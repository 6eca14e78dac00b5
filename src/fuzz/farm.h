// The long-running coverage-guided fuzzing farm (DESIGN.md §14).
//
// The unit of work is one *exec*: one GenProgram model-checked on one
// back-end through the full CheckSession pipeline, whose report carries the
// exec's hb-class set (CheckReport::trace_hashes). The farm drains a deterministic
// work queue of such jobs against a persistent Corpus:
//
//  * every corpus entry is scanned across the whole back-end roster when it
//    enters the corpus;
//  * with mutation on, further execs come from energy-weighted parent
//    selection — parents that recently contributed new hb-classes are drawn
//    more often — and a mutant is promoted into the corpus (triggering its
//    own roster scan) only when its exec reached classes no earlier exec
//    had;
//  * with mutation off (the blind baseline the acceptance test compares
//    against), further execs are fresh canonical shape_for_seed programs —
//    identical initial seeds, identical per-exec budget, no feedback.
//
// Determinism: at jobs=1 the whole run is a pure function of (FarmOptions,
// loaded corpus) except wall-clock stop (use max_execs for bit-exact runs).
// jobs>1 runs batch-synchronous rounds — jobs are *chosen* before the round
// from the pre-round corpus and merged in job order, so the schedule of
// execs stays deterministic and only the deadline cut-off point can move.
//
// Failures funnel through the session's canonicalize → shrink → minimize
// pipeline. A failing program the CLI can regenerate from its seed gets the
// standard repro_line; a mutant (no generating seed) is persisted as
// crash_<k>.json in the corpus directory with a `fuzz_farm --crash=` replay
// line instead.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "explore/check.h"
#include "explore/decision.h"
#include "fuzz/corpus.h"
#include "fuzz/mutate.h"
#include "runtime/program.h"

namespace pmc::fuzz {

/// The per-exec session defaults the farm and its benches share: shallow
/// bounds (one preemption, short horizon, small schedule cap) so an exec is
/// milliseconds and the budget buys breadth. Every exec explores under the
/// same cap, max_schedules, and reports its hb-class set — the farm's
/// entire feedback signal.
explore::SessionOptions default_farm_session();

struct FarmOptions {
  /// Corpus directory; loaded first when `resume`, saved on exit. Empty
  /// runs fully in memory (no crash files, no persistence).
  std::string corpus_dir;
  /// Wall-clock budget in seconds (0 = none). At least one of `seconds` /
  /// `max_execs` must be set.
  double seconds = 0;
  /// Exec budget for *this run* (0 = none); the deterministic knob.
  uint64_t max_execs = 0;
  /// Concurrent farm workers. Each exec's session always runs jobs=1; this
  /// is parallelism across execs.
  int jobs = 1;
  /// Back-end roster; empty means every simulated back-end.
  std::vector<rt::Target> backends;
  /// Farm RNG seed — mutation draws and energy selection.
  uint64_t seed = 0;
  /// Off: the blind-random-seeding baseline.
  bool mutate = true;
  /// How many canonical shape_for_seed programs seed an empty corpus, and
  /// the first seed value (resolve the count through SeedPlan).
  uint64_t initial_seeds = 8;
  uint64_t seed_base = 0;
  /// Seeded protocol faults (self-test soak mode).
  rt::FaultInjection faults;
  /// Load corpus_dir before running (missing directory = fresh start).
  bool resume = false;
  explore::SessionOptions session = default_farm_session();
  MutationLimits limits;
  /// Optional one-line progress sink (the CLI's stdout printer).
  std::function<void(const std::string&)> progress;
};

struct FarmFailure {
  /// Corpus entry the failing exec ran (or the mutant's parent when the
  /// mutant itself was never promoted).
  uint64_t entry_id = 0;
  rt::Target target = rt::Target::kNoCC;
  explore::GenProgram program;           // minimized
  explore::DecisionString schedule;      // minimized against `program`
  std::string message;
  std::string repro;       // one-command reproduction line
  std::string crash_file;  // crash_<k>.json path; empty for seed repros
};

struct FarmResult {
  uint64_t execs = 0;        // execs this run
  uint64_t new_classes = 0;  // hb-classes first reached this run
  uint64_t total_classes = 0;  // corpus-wide, after the run
  uint64_t schedules = 0;
  uint64_t corpus_size = 0;
  double seconds = 0;
  std::vector<FarmFailure> failures;
  /// The corpus's full (execs, total_classes) curve, including history from
  /// resumed runs.
  std::vector<std::pair<uint64_t, uint64_t>> growth;
};

/// A persisted failing execution a future fuzz_farm --crash= run can
/// replay: the exact program plus the minimized-on-it schedule.
struct CrashReport {
  rt::Target target = rt::Target::kNoCC;
  explore::GenProgram program;  // the original (unshrunk) failing program
  explore::DecisionString schedule;
  std::string message;
  std::vector<std::string> faults;  // seeded-fault names to re-inject
};

void write_crash(const std::string& path, const CrashReport& crash);
/// Throws util::CheckFailure with file:line + field on anything malformed.
CrashReport load_crash(const std::string& path);

class Farm {
 public:
  explicit Farm(FarmOptions opts);

  /// Drains the budget; loads/saves the corpus per FarmOptions.
  FarmResult run();

  const Corpus& corpus() const { return corpus_; }

 private:
  struct Job {
    uint64_t entry_id = 0;        // scanned entry, or a mutant's parent
    bool from_corpus = false;     // true: `program` is entry_id's program
    explore::GenProgram program;  // the program this exec runs
    std::string origin;           // promotion origin for non-corpus programs
    rt::Target target = rt::Target::kNoCC;
  };
  Job next_job(util::Rng& rng);
  uint64_t pick_parent(util::Rng& rng) const;
  void process(const Job& job, const explore::CheckReport& rep,
               uint64_t wall_micros, FarmResult& result);

  FarmOptions opts_;
  std::vector<rt::Target> backends_;
  Corpus corpus_;
  std::vector<Job> queue_;  // FIFO of roster-scan jobs (front = next)
  uint64_t backend_rr_ = 0;  // round-robin cursor for single-exec jobs
  uint64_t next_blind_ = 0;  // next fresh canonical seed (blind mode)
  std::vector<std::pair<std::string, std::string>> failure_keys_;
};

}  // namespace pmc::fuzz
