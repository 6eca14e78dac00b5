// One resolver for every seed-width knob of the fuzzing stack.
//
// The test suites read PMC_FUZZ_SEEDS and `fuzz_farm --seeds=N` sets the
// farm's width. SeedPlan is the single helper both route through, with one
// documented precedence order:
//
//   1. an explicit count from the caller (fuzz_farm --seeds=N) —
//      a flag the user typed always wins;
//   2. the PMC_FUZZ_SEEDS environment variable — the CI/nightly widening
//      knob, honored whenever the caller passed no explicit count;
//   3. the caller's default.
//
// Counts are clamped to [1, 10000] wherever they came from, and the seed
// values themselves are base, base+1, ... — the contiguous sweep the ctest
// fuzz label's PRE_TEST discovery enumerates. repro_line turns that rule
// around: the PMC_FUZZ_SEEDS width that brings a failing seed into the
// sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explore/decision.h"
#include "explore/program_gen.h"
#include "runtime/program.h"

namespace pmc::fuzz {

struct SeedPlan {
  enum class Source { kDefault, kEnv, kFlag };

  uint64_t base = 0;
  uint64_t count = 1;
  Source source = Source::kDefault;

  /// base, base+1, ..., base+count-1.
  std::vector<uint64_t> seeds() const;

  /// Resolves the precedence above, from seed 0. `flag_count` < 0 means
  /// "no explicit count given"; 0 or negative-after-clamp inputs resolve
  /// to 1.
  static SeedPlan resolve(int def, int64_t flag_count = -1);
};

const char* to_string(SeedPlan::Source source);

/// Shorthand for the test suites: the full seed list at default width
/// `def`, widened by PMC_FUZZ_SEEDS (the historical explore::fuzz_seeds).
std::vector<uint64_t> seed_sweep(int def = 10);

/// The one-command repro line every fuzz failure prints: how to re-run the
/// failing seed under ctest, and how to replay the failing schedule
/// directly. When `faults` injects anything, the replay command carries
/// --seed-bug so the CLI re-injects it.
std::string repro_line(const explore::ProgramShape& shape, rt::Target target,
                       const explore::DecisionString& schedule,
                       const rt::FaultInjection& faults = {});

}  // namespace pmc::fuzz
