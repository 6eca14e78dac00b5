// bench_explore: the deterministic counters of the schedule-exploration
// engine, driven end-to-end through the CheckSession API (DESIGN.md §9).
//
// Every key it writes is a count, or a ratio of counts, over a fixed
// schedule tree, so BENCH_explore.json is byte-identical run over run and
// across build types; ctest compares it with bench/baselines/ (see
// bench/README.md). Host time is pmc_bench's job (bench/pmcbench), and the
// tracing-overhead gate is bench_trace_overhead.
//
// Explores fig5_mp_annotated (message passing, the paper's running example)
// on every simulated back-end under a fixed preemption bound and horizon,
// reporting the explored count. The stateful section reports
// the snapshot-engine counters over the whole annotatable suite at a deep
// horizon (DESIGN.md §10). Then come the apps-layer workload (MFifo +
// TaskCounter on every back-end), the hb-class discovery curve, a bounded
// coverage-guided farm pass (DESIGN.md §14), and how many schedules the
// seeded-bug mode needs before each back-end's injected fault is found.
//
//   bench_explore [--preemptions=N] [--horizon=H] [--fuzz-execs=N]
//                 [--json[=PATH]]
#include <algorithm>

#include "bench/bench_common.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "fuzz/farm.h"
#include "model/litmus_library.h"

using namespace pmc;

int main(int argc, char** argv) {
  if (!bench::known_flags_only(argc, argv,
                               {"preemptions=", "horizon=", "fuzz-execs=",
                                "json", "json="})) {
    return 2;
  }
  explore::ExploreConfig cfg;
  cfg.preemption_bound =
      static_cast<int>(bench::flag_int(argc, argv, "preemptions", 2));
  cfg.horizon =
      static_cast<uint64_t>(bench::flag_int(argc, argv, "horizon", 16));

  explore::SessionOptions sopts;
  sopts.explore = cfg;

  bench::JsonReport json("explore");
  json.add("preemptions", cfg.preemption_bound);
  json.add("horizon", cfg.horizon);

  std::printf("schedule exploration (fig5_mp_annotated, preemptions<=%d, "
              "horizon=%llu)\n\n",
              cfg.preemption_bound,
              static_cast<unsigned long long>(cfg.horizon));
  const explore::CheckSession session(sopts);
  util::Table table;
  table.add_row({"back-end", "explored"});
  uint64_t total_explored = 0;
  for (rt::Target t : rt::sim_targets()) {
    const explore::LitmusTarget target(model::litmus::fig5_mp_annotated(), t);
    const auto rep = session.explore(target);
    if (rep.failing != 0) {
      std::fprintf(stderr, "!! %s: %llu model-invalid schedule(s)\n",
                   rt::to_string(t),
                   static_cast<unsigned long long>(rep.failing));
      return 1;
    }
    total_explored += rep.explored;
    table.add_row({rt::to_string(t), bench::fmt_u64(rep.explored)});
    // Keyed backend_<name>_* so consumers can discover the per-back-end
    // section by prefix no matter how many columns the registry grows.
    json.add("backend_" + std::string(rt::to_string(t)) + "_explored",
             rep.explored);
  }
  std::printf("%s\n", table.render().c_str());
  json.add("total_explored", total_explored);

  // Stateful exploration: the snapshot engine over the annotatable suite at
  // a deep horizon (snapshots amortize best when the pre-branch prefix
  // being skipped is long — DESIGN.md §10). It runs at jobs = 1, where the
  // pool counters are a deterministic function of the bounds.
  {
    explore::ExploreConfig scfg = cfg;
    scfg.horizon = std::max<uint64_t>(cfg.horizon, 24);
    std::printf("stateful exploration (annotatable suite, all back-ends, "
                "horizon=%llu)\n\n",
                static_cast<unsigned long long>(scfg.horizon));
    const explore::CheckSession suite_session(scfg);
    uint64_t explored = 0;
    uint64_t pool_hits = 0;
    uint64_t snapshots_taken = 0;
    for (rt::Target t : rt::sim_targets()) {
      for (const auto& test : explore::annotatable_tests()) {
        const explore::LitmusTarget target(test, t);
        const auto rep = suite_session.explore(target);
        if (rep.failing != 0) {
          std::fprintf(stderr, "!! %s: %llu model-invalid schedule(s)\n",
                       target.name().c_str(),
                       static_cast<unsigned long long>(rep.failing));
          return 1;
        }
        explored += rep.explored;
        pool_hits += rep.snapshot_hits;
        snapshots_taken += rep.snapshots_taken;
      }
    }
    util::Table stateful;
    stateful.add_row({"explored", "snapshots", "hits"});
    stateful.add_row({bench::fmt_u64(explored),
                      bench::fmt_u64(snapshots_taken),
                      bench::fmt_u64(pool_hits)});
    std::printf("%s\n", stateful.render().c_str());
    json.add("snapshot_pool_hits", pool_hits);
    json.add("snapshots_taken", snapshots_taken);
  }

  // Apps-layer workload (ROADMAP): MFifo + TaskCounter on every back-end
  // through the session. App schedules re-execute a whole kernel (locks,
  // polls, payload copies), so these counts follow the model-checking of a
  // real workload, not a litmus microbenchmark.
  {
    explore::SessionOptions aopts;
    aopts.explore.preemption_bound = 1;
    aopts.explore.horizon = 14;
    const explore::CheckSession apps_session(aopts);
    std::printf("apps-layer model checking (mfifo + taskcounter)\n\n");
    util::Table apps_table;
    apps_table.add_row({"app", "explored"});
    uint64_t apps_explored = 0;
    for (const explore::AppKind kind : explore::all_app_kinds()) {
      uint64_t explored = 0;
      for (rt::Target t : rt::sim_targets()) {
        const auto target = explore::make_app_target(kind, t);
        const auto rep = apps_session.explore(*target);
        if (rep.failing != 0) {
          std::fprintf(stderr, "!! %s on %s: %llu failing schedule(s)\n",
                       explore::to_string(kind), rt::to_string(t),
                       static_cast<unsigned long long>(rep.failing));
          return 1;
        }
        explored += rep.explored;
      }
      apps_explored += explored;
      apps_table.add_row({explore::to_string(kind), bench::fmt_u64(explored)});
      json.add(std::string("apps_") + explore::to_string(kind) + "_explored",
               explored);
    }
    std::printf("%s\n", apps_table.render().c_str());
    json.add("apps_explored", apps_explored);
  }

  // hb-class discovery curve: distinct happens-before classes after
  // 1, 2, 4, ... explored schedules of the fig4_exclusive sweep on SWCC
  // (jobs = 1: a deterministic saturation curve). A curve that flattens
  // long before the space exhausts is the signal that raising the bounds
  // buys coverage, not behaviors.
  {
    const explore::LitmusTarget target(model::litmus::fig4_exclusive(),
                                       rt::Target::kSWCC);
    const auto rep = session.explore(target);
    std::printf("hb-class discovery (fig4_exclusive@swcc): %llu classes in "
                "%llu schedules, curve",
                static_cast<unsigned long long>(rep.distinct_traces),
                static_cast<unsigned long long>(rep.explored));
    for (size_t i = 0; i < rep.hb_curve.size(); ++i) {
      std::printf(" %llu", static_cast<unsigned long long>(rep.hb_curve[i]));
      json.add("hb_classes_curve_" + std::to_string(i), rep.hb_curve[i]);
    }
    std::printf("\n\n");
    json.add("hb_classes_final", rep.distinct_traces);
    json.add("hb_classes_schedules", rep.explored);
  }

  // Coverage-guided fuzzing farm (DESIGN.md §14): a fixed exec budget of
  // guided mutation over every back-end, in memory, at jobs=1 — so the
  // coverage-growth keys are a deterministic function of the budget.
  {
    fuzz::FarmOptions fopts;
    fopts.max_execs = static_cast<uint64_t>(
        bench::flag_int(argc, argv, "fuzz-execs", 96));
    fopts.jobs = 1;
    fopts.seed = 1;
    const fuzz::FarmResult fr = fuzz::Farm(fopts).run();
    if (!fr.failures.empty()) {
      std::fprintf(stderr, "!! fuzz farm found %zu oracle violation(s); "
                   "first: %s\n",
                   fr.failures.size(), fr.failures.front().message.c_str());
      return 1;
    }
    std::printf("fuzz farm (guided, %llu execs, jobs=1): %llu hb-classes, "
                "corpus %llu, growth curve %zu point(s)\n\n",
                static_cast<unsigned long long>(fr.execs),
                static_cast<unsigned long long>(fr.total_classes),
                static_cast<unsigned long long>(fr.corpus_size),
                fr.growth.size());
    json.add("fuzz_execs", fr.execs);
    json.add("fuzz_schedules", fr.schedules);
    json.add("fuzz_corpus_entries", fr.corpus_size);
    json.add("fuzz_corpus_growth_samples",
             static_cast<uint64_t>(fr.growth.size()));
    json.add("fuzz_corpus_growth_final_execs",
             fr.growth.empty() ? uint64_t{0} : fr.growth.back().first);
    json.add("fuzz_corpus_growth_final_classes",
             fr.growth.empty() ? uint64_t{0} : fr.growth.back().second);
  }

  // Seeded-bug mode: schedules until the injected missing flush is exposed.
  uint64_t worst_to_find = 0;
  for (rt::Target t : rt::sim_targets()) {
    if (!explore::has_seeded_fault(t)) continue;
    const explore::LitmusTarget target = explore::seeded_bug_check(t);
    const auto rep = session.explore(target);
    if (rep.failing == 0) {
      std::fprintf(stderr, "!! %s: seeded fault not found\n",
                   rt::to_string(t));
      return 1;
    }
    std::printf("seed-bug %-5s found in %llu schedules, first failing \"%s\""
                " (%llu of %llu explored failing)\n",
                rt::to_string(t),
                static_cast<unsigned long long>(
                    rep.schedules_to_first_failure),
                explore::to_string(rep.first_failing).c_str(),
                static_cast<unsigned long long>(rep.failing),
                static_cast<unsigned long long>(rep.explored));
    worst_to_find = std::max(worst_to_find, rep.schedules_to_first_failure);
  }
  json.add("seedbug_worst_schedules", worst_to_find);
  return json.maybe_write(argc, argv) ? 0 : 1;
}
