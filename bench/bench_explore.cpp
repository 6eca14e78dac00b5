// bench_explore: throughput and parallel scaling of the schedule-exploration
// engine, driven end-to-end through the CheckSession API (DESIGN.md §9).
//
// Explores fig5_mp_annotated (message passing, the paper's running example)
// on every simulated back-end under a fixed preemption bound and horizon,
// reporting schedules/second and the pruning ratio, plus how many schedules
// the seeded-bug mode needs before the injected missing-flush fault is
// found. Schedules fork from machine snapshots (DESIGN.md §10); the
// stateful section below reports the snapshot counters at a deep horizon.
// The scaling section re-runs the fig4_exclusive sweep (every registered
// back-end) at --jobs ∈ {1, 2, 4, …} up to --jobs, checking that the totals stay
// bit-identical while the wall clock drops. The DPOR section measures the
// partial-order-reduction ratio (`dpor_reduction`, DESIGN.md §8) over the
// whole annotatable suite — a deterministic property of the schedule tree.
// The apps section measures the apps-layer workload (MFifo + TaskCounter on
// every back-end, reduced search) as `apps_schedules_per_sec`.
//
//   bench_explore [--preemptions=N] [--horizon=H] [--jobs=N] [--json[=PATH]]
#include <algorithm>
#include <chrono>
#include <thread>

#include "bench/bench_common.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "fuzz/farm.h"
#include "model/litmus_library.h"
#include "obs/trace.h"

using namespace pmc;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  explore::ExploreConfig cfg;
  cfg.preemption_bound =
      static_cast<int>(bench::flag_int(argc, argv, "preemptions", 2));
  cfg.horizon =
      static_cast<uint64_t>(bench::flag_int(argc, argv, "horizon", 20));

  explore::SessionOptions sopts;
  sopts.explore = cfg;

  bench::JsonReport json("explore");
  json.add("preemptions", cfg.preemption_bound);
  json.add("horizon", cfg.horizon);

  std::printf("schedule exploration throughput (fig5_mp_annotated, "
              "preemptions<=%d, horizon=%llu)\n\n",
              cfg.preemption_bound,
              static_cast<unsigned long long>(cfg.horizon));
  const explore::CheckSession session(sopts);
  util::Table table;
  table.add_row({"back-end", "explored", "pruned", "prune", "sched/s"});
  uint64_t total_explored = 0;
  uint64_t total_pruned = 0;
  for (rt::Target t : rt::sim_targets()) {
    const explore::LitmusTarget target(model::litmus::fig5_mp_annotated(), t);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = session.explore(target);
    const double secs = seconds_since(t0);
    if (rep.failing != 0) {
      std::fprintf(stderr, "!! %s: %llu model-invalid schedule(s)\n",
                   rt::to_string(t),
                   static_cast<unsigned long long>(rep.failing));
      return 1;
    }
    const double rate = secs > 0 ? static_cast<double>(rep.explored) / secs
                                 : 0.0;
    total_explored += rep.explored;
    total_pruned += rep.pruned;
    table.add_row({rt::to_string(t), bench::fmt_u64(rep.explored),
                   bench::fmt_u64(rep.pruned),
                   bench::pc(static_cast<double>(rep.pruned),
                             static_cast<double>(rep.explored + rep.pruned)),
                   bench::fmt_u64(static_cast<uint64_t>(rate))});
    // Keyed backend_<name>_* so consumers can discover the per-back-end
    // section by prefix no matter how many columns the registry grows.
    json.add("backend_" + std::string(rt::to_string(t)) + "_schedules_per_sec",
             rate);
    json.add("backend_" + std::string(rt::to_string(t)) + "_explored",
             rep.explored);
  }
  std::printf("%s\n", table.render().c_str());
  json.add("total_explored", total_explored);
  json.add("total_pruned", total_pruned);
  json.add("prune_ratio",
           total_explored + total_pruned == 0
               ? 0.0
               : static_cast<double>(total_pruned) /
                     static_cast<double>(total_explored + total_pruned));

  // Parallel scaling: the fig4_exclusive sweep over all back-ends, sharded
  // over 1, 2, 4, … workers. Totals must be bit-identical at every job
  // count (the space is a fixed tree); only the wall clock may change.
  const int max_jobs = static_cast<int>(bench::flag_int(argc, argv, "jobs", 8));
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("parallel scaling (fig4_exclusive sweep, all back-ends), "
              "%u host cpu(s)\n\n",
              host_cpus);
  if (host_cpus < static_cast<unsigned>(max_jobs)) {
    std::printf("note: only %u hardware thread(s) — the curve measures "
                "overhead, not speedup; run on >= %d cores for scaling\n\n",
                host_cpus, max_jobs);
  }
  util::Table scaling;
  scaling.add_row({"jobs", "explored", "sched/s", "speedup"});
  double base_rate = 0;
  double best_rate = 0;
  uint64_t scaling_explored = 0;
  int measured_jobs = 1;  // the curve doubles, so record what actually ran
  std::vector<uint64_t> last_steals;  // per-worker, from the widest run
  for (int jobs = 1; jobs <= max_jobs; jobs *= 2) {
    measured_jobs = jobs;
    explore::SessionOptions popts = sopts;
    popts.jobs = jobs;
    const explore::CheckSession scaled(popts);
    uint64_t explored = 0;
    std::vector<uint64_t> steals(static_cast<size_t>(jobs), 0);
    const auto t0 = std::chrono::steady_clock::now();
    for (rt::Target t : rt::sim_targets()) {
      const explore::LitmusTarget target(model::litmus::fig4_exclusive(), t);
      const auto rep = scaled.explore(target);
      if (rep.failing != 0) {
        std::fprintf(stderr, "!! %s: %llu model-invalid schedule(s)\n",
                     rt::to_string(t),
                     static_cast<unsigned long long>(rep.failing));
        return 1;
      }
      explored += rep.explored;
      for (size_t w = 0;
           w < rep.worker_steals.size() && w < steals.size(); ++w) {
        steals[w] += rep.worker_steals[w];
      }
    }
    last_steals = std::move(steals);
    const double secs = seconds_since(t0);
    if (scaling_explored == 0) {
      scaling_explored = explored;
    } else if (explored != scaling_explored) {
      std::fprintf(stderr,
                   "!! explored totals changed with the job count (%llu vs "
                   "%llu) — determinism bug\n",
                   static_cast<unsigned long long>(explored),
                   static_cast<unsigned long long>(scaling_explored));
      return 1;
    }
    const double rate =
        secs > 0 ? static_cast<double>(explored) / secs : 0.0;
    if (jobs == 1) base_rate = rate;
    if (rate > best_rate) best_rate = rate;
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx",
                  base_rate > 0 ? rate / base_rate : 0.0);
    scaling.add_row({std::to_string(jobs), bench::fmt_u64(explored),
                     bench::fmt_u64(static_cast<uint64_t>(rate)), speedup});
    json.add("jobs_" + std::to_string(jobs) + "_schedules_per_sec", rate);
  }
  std::printf("%s\n", scaling.render().c_str());
  json.add("host_cpus", static_cast<uint64_t>(host_cpus));
  json.add("scaling_jobs", measured_jobs);
  json.add("scaling_explored", scaling_explored);
  json.add("parallel_speedup", base_rate > 0 ? best_rate / base_rate : 0.0);
  // Work-stealing telemetry from the widest run: how evenly the frontier
  // sharded. Wall-clock-ish (scheduling-dependent), recorded not asserted.
  uint64_t steals_total = 0;
  for (size_t w = 0; w < last_steals.size(); ++w) {
    json.add("steals_worker_" + std::to_string(w), last_steals[w]);
    steals_total += last_steals[w];
  }
  json.add("steals_total", steals_total);

  // DPOR: explored-schedule reduction at identical failing sets (DESIGN.md
  // §8). The reduction is a property of the fixed schedule tree, not of the
  // host, so the ratio is deterministic and assertable even on one vCPU.
  std::printf("partial-order reduction (annotatable suite, all back-ends)\n\n");
  util::Table dpor_table;
  dpor_table.add_row({"dpor", "explored", "dpor-pruned", "reduction"});
  uint64_t dpor_explored[2] = {0, 0};
  uint64_t dpor_pruned_total = 0;
  const explore::DporMode modes[2] = {explore::DporMode::kOff,
                                      explore::DporMode::kSleepSet};
  for (int i = 0; i < 2; ++i) {
    explore::SessionOptions dopts = sopts;
    dopts.explore.dpor = modes[i];
    const explore::CheckSession dpor_session(dopts);
    for (rt::Target t : rt::sim_targets()) {
      for (const auto& test : explore::annotatable_tests()) {
        const explore::LitmusTarget target(test, t);
        const auto rep = dpor_session.explore(target);
        if (rep.failing != 0) {
          std::fprintf(stderr, "!! %s/%s dpor=%s: %llu model-invalid "
                       "schedule(s)\n",
                       rt::to_string(t), test.name.c_str(),
                       explore::to_string(modes[i]),
                       static_cast<unsigned long long>(rep.failing));
          return 1;
        }
        if (rep.truncated) {
          // A clipped count would fake a ~1.0x reduction; the ratio is only
          // meaningful over the complete bounded space.
          std::fprintf(stderr, "!! %s/%s dpor=%s: truncated at max_schedules "
                       "— dpor_reduction would be meaningless; lower "
                       "--preemptions/--horizon\n",
                       rt::to_string(t), test.name.c_str(),
                       explore::to_string(modes[i]));
          return 1;
        }
        dpor_explored[i] += rep.explored;
        if (i == 1) dpor_pruned_total += rep.dpor_pruned;
      }
    }
    const double reduction =
        i == 0 || dpor_explored[1] == 0
            ? 1.0
            : static_cast<double>(dpor_explored[0]) /
                  static_cast<double>(dpor_explored[1]);
    char red[32];
    std::snprintf(red, sizeof red, "%.1fx", reduction);
    dpor_table.add_row({explore::to_string(modes[i]),
                        bench::fmt_u64(dpor_explored[i]),
                        bench::fmt_u64(i == 1 ? dpor_pruned_total : 0), red});
  }
  std::printf("%s\n", dpor_table.render().c_str());
  json.add("dpor_off_explored", dpor_explored[0]);
  json.add("dpor_sleepset_explored", dpor_explored[1]);
  json.add("dpor_reduction",
           dpor_explored[1] == 0
               ? 0.0
               : static_cast<double>(dpor_explored[0]) /
                     static_cast<double>(dpor_explored[1]));

  // Stateful exploration: the snapshot engine over the annotatable suite at
  // a deep horizon (snapshots amortize best when the pre-branch prefix
  // being skipped is long — DESIGN.md §10). It runs at jobs = 1, where the
  // pool counters are a deterministic function of the bounds.
  {
    explore::ExploreConfig scfg = cfg;
    scfg.horizon = std::max<uint64_t>(cfg.horizon, 24);
    // DPOR off: the reduction shrinks the tree to a handful of schedules
    // per target, leaving nothing for snapshots to amortize over.
    scfg.dpor = explore::DporMode::kOff;
    std::printf("stateful exploration (annotatable suite, all back-ends, "
                "horizon=%llu, dpor=off)\n\n",
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
  // through the session, reduced search. App schedules re-execute a whole
  // kernel (locks, polls, payload copies), so this rate is the end-to-end
  // cost of model-checking a real workload, not a litmus microbenchmark.
  {
    explore::SessionOptions aopts;
    aopts.explore.preemption_bound = 1;
    aopts.explore.horizon = 14;
    aopts.explore.dpor = explore::DporMode::kSleepSet;
    const explore::CheckSession apps_session(aopts);
    std::printf("apps-layer model checking (mfifo + taskcounter, "
                "dpor=sleepset)\n\n");
    util::Table apps_table;
    apps_table.add_row({"app", "explored", "dpor-pruned", "sched/s"});
    uint64_t apps_explored = 0;
    double apps_secs = 0;
    for (const explore::AppKind kind : explore::all_app_kinds()) {
      uint64_t explored = 0;
      uint64_t dpor_pruned = 0;
      const auto t0 = std::chrono::steady_clock::now();
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
        dpor_pruned += rep.dpor_pruned;
      }
      const double secs = seconds_since(t0);
      apps_explored += explored;
      apps_secs += secs;
      const double rate =
          secs > 0 ? static_cast<double>(explored) / secs : 0.0;
      apps_table.add_row({explore::to_string(kind), bench::fmt_u64(explored),
                          bench::fmt_u64(dpor_pruned),
                          bench::fmt_u64(static_cast<uint64_t>(rate))});
      json.add(std::string("apps_") + explore::to_string(kind) + "_explored",
               explored);
    }
    std::printf("%s\n", apps_table.render().c_str());
    json.add("apps_explored", apps_explored);
    json.add("apps_schedules_per_sec",
             apps_secs > 0 ? static_cast<double>(apps_explored) / apps_secs
                           : 0.0);
  }

  // hb-class discovery curve: distinct happens-before classes after
  // 1, 2, 4, ... explored schedules of the fig4_exclusive sweep on SWCC
  // (jobs = 1, dpor off: a deterministic saturation curve). A
  // curve that flattens long before the space exhausts is the signal that
  // raising the bounds buys coverage, not behaviors.
  {
    explore::SessionOptions hopts = sopts;
    hopts.jobs = 1;
    hopts.explore.dpor = explore::DporMode::kOff;
    hopts.explore.sample_hb_curve = true;
    const explore::CheckSession hb_session(hopts);
    const explore::LitmusTarget target(model::litmus::fig4_exclusive(),
                                       rt::Target::kSWCC);
    const auto rep = hb_session.explore(target);
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

  // Tracing overhead: a machine with no recorder attached must pay one
  // predictable branch per instrumentation point, and an attached-but-
  // disarmed recorder two. Price it end-to-end: repeated stateless runs of
  // the default schedule, detached vs disarmed — the same run_spec_once
  // call on both sides, so nothing but the recorder differs.
  // The target is <2%; this host may be a loaded single vCPU, so the bench
  // records the number, warns past 2%, and only fails on a gross (>10%)
  // regression.
  {
    const explore::LitmusTarget target(model::litmus::fig5_mp_annotated(),
                                       rt::Target::kSWCC);
    obs::TraceRecorder rec;
    rec.disarm();
    const auto run_default = [&](obs::TraceRecorder* recorder) {
      explore::StatefulSpec spec = target.make_spec();
      spec.opts.trace = recorder;
      explore::ReplayPolicy policy({}, cfg.horizon,
                                   /*record_footprints=*/false);
      return explore::run_spec_once(spec, policy).ok;
    };
    const int reps =
        static_cast<int>(bench::flag_int(argc, argv, "overhead-reps", 40));
    double detached = 1e300;
    double disarmed = 1e300;
    for (int pass = 0; pass < 3; ++pass) {  // min-of-3 rejects host noise
      auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) {
        if (!run_default(nullptr)) return 1;
      }
      detached = std::min(detached, seconds_since(t0));
      t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) {
        if (!run_default(&rec)) return 1;
      }
      disarmed = std::min(disarmed, seconds_since(t0));
    }
    const double overhead_pct =
        detached > 0 ? (disarmed - detached) / detached * 100.0 : 0.0;
    std::printf("trace overhead (disarmed recorder vs detached, %d replays "
                "x3): %.2f%%\n\n",
                reps, overhead_pct);
    json.add("trace_overhead_pct", overhead_pct);
    if (overhead_pct > 10.0) {
      std::fprintf(stderr,
                   "!! disarmed-recorder overhead %.1f%% — the "
                   "instrumentation guard regressed\n",
                   overhead_pct);
      return 1;
    }
    if (overhead_pct > 2.0) {
      std::printf("note: overhead above the 2%% target — expected only on "
                  "loaded/1-vCPU hosts\n\n");
    }
  }

  // Coverage-guided fuzzing farm (DESIGN.md §14): a fixed exec budget of
  // guided mutation over every back-end, in memory, at jobs=1 — so the
  // coverage-growth keys are a deterministic function of the budget and
  // only the classes-per-second rate tracks the host. Written as a second
  // report (BENCH_fuzz.json) because the farm is its own subsystem with its
  // own trajectory to follow across PRs.
  {
    fuzz::FarmOptions fopts;
    fopts.max_execs = static_cast<uint64_t>(
        bench::flag_int(argc, argv, "fuzz-execs", 96));
    fopts.jobs = 1;
    fopts.seed = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const fuzz::FarmResult fr = fuzz::Farm(fopts).run();
    const double secs = seconds_since(t0);
    if (!fr.failures.empty()) {
      std::fprintf(stderr, "!! fuzz farm found %zu oracle violation(s); "
                   "first: %s\n",
                   fr.failures.size(), fr.failures.front().message.c_str());
      return 1;
    }
    const double classes_per_sec =
        secs > 0 ? static_cast<double>(fr.total_classes) / secs : 0.0;
    std::printf("fuzz farm (guided, %llu execs, jobs=1): %llu hb-classes "
                "(%.0f/s), corpus %llu, growth curve %zu point(s)\n\n",
                static_cast<unsigned long long>(fr.execs),
                static_cast<unsigned long long>(fr.total_classes),
                classes_per_sec, static_cast<unsigned long long>(
                    fr.corpus_size),
                fr.growth.size());
    bench::JsonReport fuzz_json("fuzz");
    fuzz_json.add("fuzz_execs", fr.execs);
    fuzz_json.add("fuzz_schedules", fr.schedules);
    fuzz_json.add("fuzz_dpor_pruned", fr.dpor_pruned);
    fuzz_json.add("fuzz_classes_per_sec", classes_per_sec);
    fuzz_json.add("fuzz_corpus_entries", fr.corpus_size);
    fuzz_json.add("fuzz_corpus_growth_samples",
                  static_cast<uint64_t>(fr.growth.size()));
    fuzz_json.add("fuzz_corpus_growth_final_execs",
                  fr.growth.empty() ? uint64_t{0} : fr.growth.back().first);
    fuzz_json.add("fuzz_corpus_growth_final_classes",
                  fr.growth.empty() ? uint64_t{0} : fr.growth.back().second);
    const bool want_json =
        bench::flag_set(argc, argv, "json") ||
        bench::flag_str(argc, argv, "json", nullptr) != nullptr;
    if (want_json && !fuzz_json.write_file(fuzz_json.default_path())) {
      return 1;
    }
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
