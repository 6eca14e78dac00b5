// fuzz_farm: the long-running coverage-guided fuzzing farm (DESIGN.md §14).
//
// Drains a (seed, back-end) work queue against the persistent hb-class
// corpus: every exec model-checks one generated program on one back-end
// through the CheckSession differential oracle, new hb-classes promote the
// program into the corpus, and energy-weighted mutation breeds the next
// generation from the most productive parents. Stop any time; --resume
// continues from the saved corpus with the coverage-growth curve intact.
//
//   fuzz_farm --corpus=corpus --time=30 --jobs=2 --backend=all
//   fuzz_farm --corpus=corpus --time=10 --resume       # keeps growing
//   fuzz_farm --max-execs=120 --seed=7 --jobs=1        # deterministic run
//   fuzz_farm --no-mutate --max-execs=120 --seed=7     # blind baseline
//   fuzz_farm --no-mutate --seeds=6                    # scan 6 seeds x roster
//   fuzz_farm --seed-bug --corpus=soak --time=30       # self-test soak
//   fuzz_farm --crash=corpus/crash_0.json              # replay a mutant repro
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "examples/cli_common.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "fuzz/farm.h"
#include "fuzz/seed_plan.h"
#include "runtime/backends/registry.h"
#include "util/check.h"

using namespace pmc;
using bench::flag_int;
using bench::flag_set;
using bench::flag_str;

namespace {

/// --crash=FILE: replay a persisted mutant failure (the repro line the farm
/// prints for programs no seed regenerates). Exit 0 when the failure still
/// reproduces — the crash file exists because the run *should* fail.
int run_crash(const char* path, const explore::SessionOptions& sopts) {
  const fuzz::CrashReport crash = fuzz::load_crash(path);
  rt::FaultInjection faults;
  for (const std::string& name : crash.faults) faults.enable(name);
  const explore::GenProgramTarget target(crash.program, crash.target, faults);
  const explore::CheckSession session(sopts);
  bool applied = false;
  const explore::RunOutcome out =
      session.replay(target, crash.schedule, &applied);
  std::printf("%s, schedule \"%s\":\n%s", target.name().c_str(),
              explore::to_string(crash.schedule).c_str(),
              explore::to_string(crash.program).c_str());
  if (!applied) {
    std::fprintf(stderr, "schedule never fully applied — stale crash file?\n");
    return 2;
  }
  std::printf("verdict: %s\n", out.ok ? "model-valid (did NOT reproduce)"
                                      : out.message.c_str());
  std::printf("recorded: %s\n", crash.message.c_str());
  return out.ok ? 1 : 0;
}

int run_main(int argc, char** argv) {
  bench::require_known_flags(
      argc, argv,
      {"preemptions=", "horizon=", "max-schedules=", "crash=", "corpus=",
       "time=", "max-execs=", "jobs=", "backend=", "seed=", "seeds=",
       "no-mutate", "resume", "seed-bug", "quiet", "json", "json="});
  explore::SessionOptions sopts = fuzz::default_farm_session();
  sopts.explore.preemption_bound = static_cast<int>(
      flag_int(argc, argv, "preemptions", sopts.explore.preemption_bound));
  sopts.explore.horizon = static_cast<uint64_t>(flag_int(
      argc, argv, "horizon", static_cast<int64_t>(sopts.explore.horizon)));
  sopts.explore.max_schedules = static_cast<uint64_t>(
      flag_int(argc, argv, "max-schedules",
               static_cast<int64_t>(sopts.explore.max_schedules)));

  if (const char* crash = flag_str(argc, argv, "crash", nullptr)) {
    return run_crash(crash, sopts);
  }

  fuzz::FarmOptions fopts;
  fopts.session = sopts;
  if (const char* dir = flag_str(argc, argv, "corpus", nullptr)) {
    fopts.corpus_dir = dir;
  }
  fopts.seconds = static_cast<double>(flag_int(argc, argv, "time", 0));
  fopts.max_execs =
      static_cast<uint64_t>(flag_int(argc, argv, "max-execs", 0));
  fopts.jobs = static_cast<int>(flag_int(argc, argv, "jobs", 1));
  fopts.backends =
      cli::parse_backends(flag_str(argc, argv, "backend", nullptr));
  fopts.seed = static_cast<uint64_t>(flag_int(argc, argv, "seed", 0));
  fopts.mutate = !flag_set(argc, argv, "no-mutate");
  fopts.resume = flag_set(argc, argv, "resume");
  // --seeds=N beats PMC_FUZZ_SEEDS beats the default width (seed_plan.h).
  const fuzz::SeedPlan plan =
      fuzz::SeedPlan::resolve(8, flag_int(argc, argv, "seeds", -1));
  fopts.initial_seeds = plan.count;
  if (flag_set(argc, argv, "seed-bug")) {
    fopts.faults = explore::all_seeded_faults();
  }
  if (!flag_set(argc, argv, "quiet")) {
    fopts.progress = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    };
  }
  if (!fopts.mutate && fopts.seconds <= 0 && fopts.max_execs == 0) {
    // The blind scan's own length: every initial seed on every back-end.
    fopts.max_execs = fopts.initial_seeds * fopts.backends.size();
  }
  if (fopts.seconds <= 0 && fopts.max_execs == 0) {
    std::fprintf(stderr,
                 "usage: fuzz_farm --time=S | --max-execs=N | --no-mutate  "
                 "[--corpus=DIR --jobs=N --backend=%s|all --seed=N --seeds=N --resume "
                 "--no-mutate --seed-bug --json[=PATH] --quiet]\n"
                 "       fuzz_farm --crash=FILE   # replay a crash file\n",
                 rt::backend_names().c_str());
    return 2;
  }
  // The farm runs on the default exploration machine.
  cli::require_hostable(fopts.backends, sim::MachineConfig{});

  std::printf("fuzz farm: %s, %d job(s), %zu back-end(s), seed %llu, "
              "initial seeds %llu+%llu (%s)%s%s\n",
              fopts.mutate ? "coverage-guided mutation" : "blind seeding",
              fopts.jobs, fopts.backends.size(),
              static_cast<unsigned long long>(fopts.seed),
              static_cast<unsigned long long>(fopts.seed_base),
              static_cast<unsigned long long>(fopts.initial_seeds),
              to_string(plan.source),
              fopts.faults.any() ? ", seeded faults injected" : "",
              fopts.resume ? ", resuming" : "");

  fuzz::Farm farm(fopts);
  const fuzz::FarmResult res = farm.run();

  std::printf("\n%llu exec(s) in %.1fs (%.1f/s), %llu schedule(s)\n"
              "hb-classes: +%llu new this run, %llu total across %zu "
              "back-end(s); corpus %llu entr%s\n",
              static_cast<unsigned long long>(res.execs), res.seconds,
              res.seconds > 0 ? static_cast<double>(res.execs) / res.seconds
                              : 0.0,
              static_cast<unsigned long long>(res.schedules),
              static_cast<unsigned long long>(res.new_classes),
              static_cast<unsigned long long>(res.total_classes),
              farm.corpus().classes().size(),
              static_cast<unsigned long long>(res.corpus_size),
              res.corpus_size == 1 ? "y" : "ies");
  for (const fuzz::FarmFailure& f : res.failures) {
    std::printf("!! %s: schedule \"%s\": %s\n   %s\n   minimized program:\n%s",
                rt::to_string(f.target),
                explore::to_string(f.schedule).c_str(), f.message.c_str(),
                f.repro.c_str(), explore::to_string(f.program).c_str());
  }

  bench::JsonReport json("fuzz");
  json.add("execs", res.execs);
  json.add("seconds", res.seconds);
  json.add("new_classes", res.new_classes);
  json.add("total_classes", res.total_classes);
  json.add("corpus_entries", res.corpus_size);
  json.add("schedules", res.schedules);
  json.add("failures", static_cast<uint64_t>(res.failures.size()));
  json.add("mutate", static_cast<uint64_t>(fopts.mutate ? 1 : 0));
  if (!res.growth.empty()) {
    json.add("growth_samples", static_cast<uint64_t>(res.growth.size()));
    json.add("growth_final_execs", res.growth.back().first);
    json.add("growth_final_classes", res.growth.back().second);
  }
  if (!json.maybe_write(argc, argv)) return 1;

  if (fopts.faults.any()) {
    // Self-test soak: injected protocol faults MUST surface as minimized,
    // replayable failures through the farm path.
    if (res.failures.empty()) {
      std::printf("!! seeded faults were injected but the farm found none\n");
      return 1;
    }
    std::printf("\nseeded faults found and minimized: %zu distinct "
                "failure(s).\n",
                res.failures.size());
    return 0;
  }
  if (!res.failures.empty()) return 1;
  std::printf("\nno oracle violations; coverage curve has %zu point(s).\n",
              res.growth.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A named contract violation (bad corpus file, impossible back-end
  // selection) is a clean usage error: print it and exit 2 for CI to grep.
  try {
    return run_main(argc, argv);
  } catch (const util::CheckFailure& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
