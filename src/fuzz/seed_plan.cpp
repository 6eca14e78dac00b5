#include "fuzz/seed_plan.h"

#include <cstdlib>
#include <numeric>

namespace pmc::fuzz {

namespace {

uint64_t clamp_width(int64_t n) {
  if (n < 1) return 1;
  if (n > 10'000) return 10'000;
  return static_cast<uint64_t>(n);
}

}  // namespace

std::vector<uint64_t> SeedPlan::seeds() const {
  std::vector<uint64_t> out(static_cast<size_t>(count));
  std::iota(out.begin(), out.end(), base);
  return out;
}

SeedPlan SeedPlan::resolve(int def, int64_t flag_count) {
  SeedPlan plan;
  if (flag_count >= 0) {
    plan.count = clamp_width(flag_count);
    plan.source = Source::kFlag;
    return plan;
  }
  if (const char* env = std::getenv("PMC_FUZZ_SEEDS")) {
    plan.count = clamp_width(std::atoll(env));
    plan.source = Source::kEnv;
    return plan;
  }
  plan.count = clamp_width(def);
  plan.source = Source::kDefault;
  return plan;
}

const char* to_string(SeedPlan::Source source) {
  switch (source) {
    case SeedPlan::Source::kDefault: return "default";
    case SeedPlan::Source::kEnv: return "env";
    case SeedPlan::Source::kFlag: return "flag";
  }
  return "?";
}

std::vector<uint64_t> seed_sweep(int def) {
  return SeedPlan::resolve(def).seeds();
}

std::string repro_line(const explore::ProgramShape& shape, rt::Target target,
                       const explore::DecisionString& schedule,
                       const rt::FaultInjection& faults) {
  // `-R DiffFuzz` matches both the parameterized seed sweep
  // (explore/Seeds/DiffFuzzSeeds.*/N) and the fixed DiffFuzz self-tests.
  // The widened PMC_FUZZ_SEEDS takes effect at ctest's PRE_TEST discovery
  // (tests/CMakeLists.txt), i.e. on the first ctest run after a (re)build —
  // `touch` the test binary to force re-enumeration in an already-run tree.
  // The `replay:` half reproduces the exact schedule either way. The ctest
  // half only holds for the canonical per-seed shape the suites generate;
  // for overridden shapes only the replay command reproduces the program.
  std::string s = "repro: ";
  if (shape == explore::shape_for_seed(shape.seed)) {
    s += "PMC_FUZZ_SEEDS=" + std::to_string(shape.seed + 1) +
         " ctest -R DiffFuzz --output-on-failure ; replay: ";
  } else {
    s += "(non-canonical shape, not in the ctest sweep) ";
  }
  s += "explore_litmus --fuzz-seed=" + std::to_string(shape.seed);
  s += " --fuzz-cores=" + std::to_string(shape.cores);
  s += " --fuzz-objects=" + std::to_string(shape.objects);
  s += " --fuzz-steps=" + std::to_string(shape.steps);
  s += " --backend=" + std::string(rt::to_string(target));
  if (faults.any()) {
    s += " --seed-bug";
  }
  s += " --replay=" + explore::to_string(schedule);
  return s;
}

}  // namespace pmc::fuzz
