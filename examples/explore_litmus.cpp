// explore_litmus: the one explorer front-end — model-check litmus tests and
// apps-layer kernels across interleavings, and replay one schedule of a
// generated fuzz program (the replay half of every fuzz repro line; the
// batch differential fuzzer is fuzz_farm --no-mutate).
//
// Every mode drives a CheckTarget through the CheckSession facade
// (DESIGN.md §9): the session owns bounds, worker count (--jobs), and
// failure minimization, so reports are deterministic at any job count.
// Clean modes must find zero failures; --seed-bug injects the per-back-end
// "missing flush" fault that only reordered schedules expose, and the
// session must find, minimize, and replay it.
//
//   explore_litmus --backend=swcc --preemptions=2 --horizon=24 --jobs=4
//   explore_litmus --seed-bug --backend=all
//   explore_litmus --backend=dsm --test=fig4_exclusive --replay=3:1,4:1
//   explore_litmus --app=mfifo --backend=all
//   explore_litmus --app=all --seed-bug
//   explore_litmus --fuzz-seed=3 --backend=swcc --replay=2:1
//   explore_litmus --progress --backend=swcc   # live schedules/s + ETA line
//   explore_litmus --seed-bug --backend=dsm --trace-out=fault.json
//   explore_litmus --backend=dsm --test=fig4_exclusive --replay=3:1
//       --trace-out=run.json           # cycle trace for ui.perfetto.dev
//   explore_litmus --outcomes          # model-level reachable-outcome table
//   explore_litmus --dot               # Fig. 5 execution graph as Graphviz
//   explore_litmus --config=bench/configs/mesh64.cfg --backend=swcc
//       --preemptions=1                # explore on a described machine
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "examples/cli_common.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "model/execution.h"
#include "model/litmus_library.h"
#include "obs/trace.h"
#include "runtime/backends/registry.h"
#include "util/check.h"
#include "util/table.h"

using namespace pmc;
using bench::flag_int;
using bench::flag_set;
using bench::flag_str;

namespace {

std::vector<explore::AppKind> parse_apps(const char* arg) {
  if (std::strcmp(arg, "all") == 0) return explore::all_app_kinds();
  const auto kind = explore::app_kind_from_string(arg);
  if (!kind) {
    std::fprintf(stderr, "unknown app '%s' (want mfifo|taskcounter|all)\n",
                 arg);
    std::exit(2);
  }
  return {*kind};
}

/// Shape for --fuzz-seed: canonical per-seed shape, with optional explicit
/// overrides (the knobs repro lines print).
explore::ProgramShape fuzz_shape(uint64_t seed, int argc, char** argv) {
  explore::ProgramShape shape = explore::shape_for_seed(seed);
  if (const int64_t v = flag_int(argc, argv, "fuzz-cores", 0)) {
    shape.cores = static_cast<int>(v);
  }
  if (const int64_t v = flag_int(argc, argv, "fuzz-objects", 0)) {
    shape.objects = static_cast<int>(v);
  }
  if (const int64_t v = flag_int(argc, argv, "fuzz-steps", 0)) {
    shape.steps = static_cast<int>(v);
  }
  return shape;
}

/// Writes the recorder's buffer as a Chrome trace-event JSON file; load it
/// at https://ui.perfetto.dev.
bool write_trace(const obs::TraceRecorder& rec, const char* path) {
  const std::string doc = obs::chrome_trace_json(rec);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace file %s\n", path);
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("trace: %zu event(s)%s -> %s (load at https://ui.perfetto.dev)\n",
              rec.size(),
              rec.dropped() != 0
                  ? (" (+" + std::to_string(rec.dropped()) + " dropped)").c_str()
                  : "",
              path);
  return true;
}

int run_replay(const explore::CheckSession& session,
               const explore::CheckTarget& target, const char* backend,
               const char* decisions, const char* trace_out) {
  explore::DecisionString ds;
  try {
    ds = explore::parse_decision_string(decisions);
  } catch (const util::CheckFailure& e) {
    std::fprintf(stderr, "bad --replay string: %s\n", e.what());
    return 2;
  }
  bool applied = false;
  std::optional<obs::TraceRecorder> rec;
  if (trace_out != nullptr) rec.emplace();
  const auto out = session.replay(target, ds, &applied,
                                  rec ? &*rec : nullptr);
  if (!applied) {
    std::fprintf(stderr,
                 "schedule \"%s\" does not match this program: some "
                 "override(s) never applied — wrong --test/--backend, or the "
                 "string is stale\n",
                 explore::to_string(ds).c_str());
    return 2;
  }
  if (rec && !write_trace(*rec, trace_out)) return 2;
  std::printf("%s on %s, schedule \"%s\": %s\n", target.name().c_str(),
              backend, explore::to_string(ds).c_str(),
              out.ok ? "model-valid" : out.message.c_str());
  return out.ok ? 0 : 1;
}

int run_seed_bug(rt::Target target, const explore::CheckSession& session,
                 bench::JsonReport& json, const char* trace_out) {
  if (!explore::has_seeded_fault(target)) {
    std::printf("%-6s no seedable protocol fault (no-CC has no coherence "
                "actions to omit) — skipped\n",
                rt::to_string(target));
    return 0;
  }
  const explore::LitmusTarget check = explore::seeded_bug_check(target);
  // The fault hides under the default schedule; exploration must expose it.
  if (!session.replay(check, {}).ok) {
    std::printf("%-6s unexpected: fault already visible under the default "
                "schedule\n",
                rt::to_string(target));
    return 1;
  }
  const explore::CheckReport rep = session.check(check);
  if (rep.failing == 0) {
    std::printf("%-6s FAILED to find the seeded fault in %llu schedules\n",
                rt::to_string(target),
                static_cast<unsigned long long>(rep.explored));
    return 1;
  }
  // Confirm the minimized schedule with an explicit replay verdict rather
  // than inferring it from message emptiness. With --trace-out the same
  // replay runs with the cycle recorder armed: the exported timeline shows
  // the protocol fault the search found (e.g. the skipped flush) as it
  // unfolds across the cores.
  std::optional<obs::TraceRecorder> rec;
  if (trace_out != nullptr) rec.emplace();
  const auto confirm = session.replay(check, rep.minimized_schedule, nullptr,
                                      rec ? &*rec : nullptr);
  std::printf(
      "%-6s seeded fault: %llu of %llu explored schedules failing\n"
      "       canonical failing schedule: \"%s\" (lexicographic minimum)\n"
      "       minimized to:               \"%s\" (%zu preemption(s))\n"
      "       replay: %s\n",
      rt::to_string(target), static_cast<unsigned long long>(rep.failing),
      static_cast<unsigned long long>(rep.explored),
      explore::to_string(rep.first_failing).c_str(),
      explore::to_string(rep.minimized_schedule).c_str(),
      rep.minimized_schedule.size(),
      confirm.ok ? "UNEXPECTEDLY VALID" : confirm.message.c_str());
  const std::string key = std::string("seedbug_") + rt::to_string(target);
  json.add(key + "_failing", rep.failing);
  json.add(key + "_explored", rep.explored);
  if (rec && !write_trace(*rec, trace_out)) return 1;
  return confirm.ok ? 1 : 0;
}

int run_apps(const std::vector<explore::AppKind>& kinds,
             const std::vector<rt::Target>& backends, bool seed_bug,
             const explore::CheckSession& session, bench::JsonReport& json) {
  const auto& cfg = session.options().explore;
  std::printf("apps-layer model checking: preemptions<=%d, horizon=%llu, "
              "jobs=%d%s\n\n",
              cfg.preemption_bound,
              static_cast<unsigned long long>(cfg.horizon),
              session.options().jobs,
              seed_bug ? ", seeded faults injected" : "");
  const rt::FaultInjection faults =
      seed_bug ? explore::all_seeded_faults() : rt::FaultInjection{};
  bool any_faultable = false;
  for (const rt::Target t : backends) {
    any_faultable = any_faultable || explore::has_seeded_fault(t);
  }
  if (seed_bug && !any_faultable) {
    // Mirror the litmus seed-bug mode: a selection with nothing to fault
    // (no-CC only) is a clean skip, not a failure to find.
    std::printf("no selected back-end has a seedable protocol fault — "
                "skipped\n");
    return 0;
  }
  util::Table table;
  table.add_row({"app", "back-end", "explored", "traces", "failing"});
  int rc = 0;
  for (const explore::AppKind kind : kinds) {
    // In seed-bug mode each app must expose a seeded fault on at least one
    // faultable back-end (which fault a given kernel can observe at these
    // small bounds differs per protocol).
    bool found_for_app = false;
    for (const rt::Target t : backends) {
      const auto target = explore::make_app_target(kind, t, faults);
      const explore::CheckReport rep = session.check(*target);
      table.add_row({explore::to_string(kind), rt::to_string(t),
                     std::to_string(rep.explored) + (rep.truncated ? "+" : ""),
                     std::to_string(rep.distinct_traces),
                     std::to_string(rep.failing)});
      const std::string key = std::string("app_") + explore::to_string(kind) +
                              "_" + rt::to_string(t);
      json.add(key + "_explored", rep.explored);
      json.add(key + "_traces", rep.distinct_traces);
      json.add(key + "_failing", rep.failing);
      const bool expect_failure = seed_bug && explore::has_seeded_fault(t);
      if (!expect_failure && rep.failing != 0) {
        rc = 1;
        std::printf("!! %s: schedule \"%s\": %s\n", rep.target.c_str(),
                    explore::to_string(rep.first_failing).c_str(),
                    rep.first_failing_message.c_str());
      }
      if (expect_failure && rep.failing != 0) {
        found_for_app = true;
        std::printf("%s seeded fault: %llu of %llu failing, minimized to "
                    "\"%s\": %s\n",
                    rep.target.c_str(),
                    static_cast<unsigned long long>(rep.failing),
                    static_cast<unsigned long long>(rep.explored),
                    explore::to_string(rep.minimized_schedule).c_str(),
                    rep.minimized_message.c_str());
      }
    }
    if (seed_bug && !found_for_app) {
      std::printf("!! %s: no seeded fault exposed on any back-end\n",
                  explore::to_string(kind));
      rc = 1;
    }
  }
  std::printf("%s", table.render().c_str());
  return rc;
}

// -- Model-level enumeration (the folded-in litmus_explorer) -----------------

void show_outcomes(const model::LitmusTest& test) {
  std::printf("%-28s", test.name.c_str());
  for (model::IssueMode mode :
       {model::IssueMode::kProgramOrder, model::IssueMode::kWeakIssue}) {
    model::ExploreOptions opts;
    opts.mode = mode;
    opts.weak_window = 4;
    const auto res = model::explore(test, opts);
    std::printf("  %s:",
                mode == model::IssueMode::kProgramOrder ? "in-order" : "weak");
    for (const auto& outcome : res.outcomes) {
      std::printf(" {");
      for (size_t i = 0; i < outcome.size(); ++i) {
        std::printf("%s%llu", i ? "," : "",
                    static_cast<unsigned long long>(outcome[i]));
      }
      std::printf("}");
    }
    if (res.race_observed) std::printf(" [racy]");
  }
  std::printf("\n");
}

int run_outcomes() {
  std::printf("reachable outcomes per litmus test (registers in braces):\n\n");
  for (const auto& test : model::litmus::all_tests()) {
    show_outcomes(test);
  }
  std::printf(
      "\nreading the table:\n"
      " * fig1_mp_plain: {0} reachable — the stale read of the motivating "
      "example;\n"
      " * fig5_mp_annotated: only {42} — annotations forbid the stale "
      "outcome in both modes;\n"
      " * fig5_mp_no_reader_fence: {0} reappears under weak issue — the "
      "fence at Fig. 5 line 11 is essential;\n"
      " * fig5_mp_no_writer_fence: identical to the annotated test — the "
      "line 3 fence is redundant in the model;\n"
      " * sb_locked: (0,0) unreachable — PMC behaves sequentially "
      "consistent for data-race-free programs (Section IV-E).\n"
      "\nrun with --dot for the Fig. 5 dependency graph in Graphviz form.\n");
  return 0;
}

int run_dot() {
  // Rebuild the Fig. 5 execution in its depicted interleaving and dump it.
  model::Execution e(2, 2, {0, 0});
  e.acquire(0, 0);
  const model::OpId wx = e.write(0, 0, 42);
  e.fence(0);
  e.release(0, 0);
  e.acquire(0, 1);
  const model::OpId wf = e.write(0, 1, 1);
  e.release(0, 1);
  e.read(1, 1, 1, wf);
  e.fence(1);
  e.acquire(1, 0);
  e.read(1, 0, 42, wx);
  e.release(1, 0);
  std::printf("%s", e.to_dot().c_str());
  return 0;
}

/// Flags that only some modes read: passing one to a mode that ignores it is
/// a usage error, not a silent no-op. The exploration bounds and --backend
/// are shared knobs and are not listed.
constexpr std::string_view kModeFlags[] = {
    "dot", "outcomes", "app", "fuzz-seed", "fuzz-cores", "fuzz-objects",
    "fuzz-steps", "seed-bug", "replay", "test", "trace-out", "config",
    "json"};

/// The first mode-specific flag the selected mode would ignore, as a usage
/// message; empty when every given flag is read. Modes are matched in
/// run_main's dispatch order; the litmus sweep is the fallback.
std::string mode_conflict(int argc, char** argv) {
  const auto given = [&](std::string_view f) {
    const std::string name(f);
    return flag_set(argc, argv, name.c_str()) ||
           flag_str(argc, argv, name.c_str(), nullptr) != nullptr;
  };
  struct Mode {
    std::string_view flag;  // empty: the litmus sweep
    std::vector<std::string_view> reads;
  };
  const Mode modes[] = {
      {"dot", {}},
      {"outcomes", {}},
      {"app", {"seed-bug", "json"}},
      {"fuzz-seed",
       {"fuzz-cores", "fuzz-objects", "fuzz-steps", "seed-bug", "replay",
        "trace-out"}},
      {"seed-bug", {"trace-out", "json"}},
      {"replay", {"test", "config", "trace-out"}},
      {"", {"test", "config", "json"}},
  };
  const Mode* mode = &modes[std::size(modes) - 1];
  for (const Mode& m : modes) {
    if (!m.flag.empty() && given(m.flag)) {
      mode = &m;
      break;
    }
  }
  for (const std::string_view f : kModeFlags) {
    if (f == mode->flag || !given(f) ||
        std::find(mode->reads.begin(), mode->reads.end(), f) !=
            mode->reads.end()) {
      continue;
    }
    return "--" + std::string(f) + " has no effect " +
           (mode->flag.empty() ? std::string("on a litmus sweep")
                               : "with --" + std::string(mode->flag));
  }
  return "";
}

int run_main(int argc, char** argv) {
  bench::require_known_flags(
      argc, argv,
      {"dot", "outcomes", "preemptions=", "horizon=", "max-schedules=",
       "jobs=", "progress", "backend=", "test=", "replay=",
       "trace-out=", "app=", "seed-bug", "fuzz-seed=", "fuzz-cores=",
       "fuzz-objects=", "fuzz-steps=", "config=", "json", "json="});
  if (const std::string conflict = mode_conflict(argc, argv);
      !conflict.empty()) {
    std::fprintf(stderr, "%s\n", conflict.c_str());
    return 2;
  }
  if (flag_set(argc, argv, "dot")) return run_dot();
  if (flag_set(argc, argv, "outcomes")) return run_outcomes();

  explore::SessionOptions sopts;
  explore::ExploreConfig& cfg = sopts.explore;
  cfg.preemption_bound =
      static_cast<int>(flag_int(argc, argv, "preemptions", 2));
  cfg.horizon = static_cast<uint64_t>(flag_int(argc, argv, "horizon", 24));
  if (cfg.horizon > explore::kMaxDecisionField) {
    // The replay parser bounds decision steps to kMaxDecisionField; a larger
    // horizon could emit failing schedules this tool then refuses to replay.
    std::fprintf(stderr, "--horizon=%llu exceeds the replayable bound %llu\n",
                 static_cast<unsigned long long>(cfg.horizon),
                 static_cast<unsigned long long>(explore::kMaxDecisionField));
    return 2;
  }
  cfg.max_schedules =
      static_cast<uint64_t>(flag_int(argc, argv, "max-schedules", 50'000));
  sopts.jobs = static_cast<int>(flag_int(argc, argv, "jobs", 1));
  if (flag_set(argc, argv, "progress")) {
    // Telemetry-only live line on stderr: schedules/s plus the worst-case
    // ETA against the --max-schedules bound (the space usually exhausts
    // earlier). The engines call this from worker threads; the shared
    // state is mutex-guarded and restarts the clock whenever the explored
    // counter rewinds (a new exploration began).
    struct ProgressClock {
      std::mutex mu;
      std::chrono::steady_clock::time_point start =
          std::chrono::steady_clock::now();
      uint64_t last = 0;
    };
    auto clk = std::make_shared<ProgressClock>();
    cfg.progress = [clk, bound = cfg.max_schedules](
                       const explore::ProgressUpdate& u) {
      std::lock_guard<std::mutex> lk(clk->mu);
      if (u.explored < clk->last) {
        clk->start = std::chrono::steady_clock::now();
      }
      clk->last = u.explored;
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        clk->start)
              .count();
      const double rate =
          secs > 0 ? static_cast<double>(u.explored) / secs : 0;
      const double eta = rate > 0 && bound > u.explored
                             ? static_cast<double>(bound - u.explored) / rate
                             : 0;
      std::fprintf(stderr,
                   "\r[explore] %llu/%llu schedules  %.0f/s  eta<=%.1fs  "
                   "hb-classes %llu  failing %llu   ",
                   static_cast<unsigned long long>(u.explored),
                   static_cast<unsigned long long>(bound), rate, eta,
                   static_cast<unsigned long long>(u.distinct_traces),
                   static_cast<unsigned long long>(u.failing));
      std::fflush(stderr);
    };
  }
  const int jobs = sopts.jobs;
  const auto backends =
      cli::parse_backends(flag_str(argc, argv, "backend", nullptr));
  const char* test_filter = flag_str(argc, argv, "test", nullptr);
  const char* replay = flag_str(argc, argv, "replay", nullptr);
  const char* trace_out = flag_str(argc, argv, "trace-out", nullptr);
  const char* app = flag_str(argc, argv, "app", nullptr);
  const int64_t fuzz_seed = flag_int(argc, argv, "fuzz-seed", -1);
  const char* config_path = flag_str(argc, argv, "config", nullptr);
  std::optional<sim::MachineConfig> config_machine;
  if (config_path != nullptr) {
    config_machine = sim::MachineConfig::from_file(config_path);
  }
  cli::require_hostable(backends, config_machine ? *config_machine
                                                   : sim::MachineConfig{});

  bench::JsonReport json("explore_litmus");
  json.add("jobs", jobs);

  // -- Apps-layer mode --------------------------------------------------------
  if (app != nullptr) {
    // App kernels take more decisions per schedule than a litmus test, so
    // the default bounds trade horizon for per-schedule depth; explicit
    // flags win.
    explore::SessionOptions aopts = sopts;
    aopts.explore.preemption_bound =
        static_cast<int>(flag_int(argc, argv, "preemptions", 1));
    aopts.explore.horizon =
        static_cast<uint64_t>(flag_int(argc, argv, "horizon", 14));
    json.add("preemptions", aopts.explore.preemption_bound);
    json.add("horizon", aopts.explore.horizon);
    const explore::CheckSession session(aopts);
    const int rc = run_apps(parse_apps(app), backends,
                            flag_set(argc, argv, "seed-bug"), session, json);
    return json.maybe_write(argc, argv) ? rc : 1;
  }

  // -- Fuzz repro replay ------------------------------------------------------
  if (fuzz_seed >= 0) {
    // Replay one schedule of one generated program on one back-end: the
    // second half of every fuzz repro line.
    if (replay == nullptr || backends.size() != 1) {
      std::fprintf(stderr,
                   "usage: explore_litmus --fuzz-seed=N [--fuzz-cores=N "
                   "--fuzz-objects=N --fuzz-steps=N --seed-bug] --backend=B "
                   "--replay=S\n");
      return 2;
    }
    const explore::GenProgram prog = explore::generate_program(
        fuzz_shape(static_cast<uint64_t>(fuzz_seed), argc, argv));
    const rt::FaultInjection faults = flag_set(argc, argv, "seed-bug")
                                          ? explore::all_seeded_faults()
                                          : rt::FaultInjection{};
    const explore::GenProgramTarget target(prog, backends[0], faults);
    const explore::CheckSession session(sopts);
    return run_replay(session, target, rt::to_string(backends[0]), replay,
                      trace_out);
  }
  // -- Litmus modes -----------------------------------------------------------
  const explore::CheckSession session(sopts);
  json.add("preemptions", cfg.preemption_bound);
  json.add("horizon", cfg.horizon);
  if (flag_set(argc, argv, "seed-bug")) {
    int rc = 0;
    for (rt::Target t : backends) {
      rc |= run_seed_bug(t, session, json, trace_out);
    }
    return json.maybe_write(argc, argv) ? rc : 1;
  }

  auto tests = explore::annotatable_tests();
  if (test_filter != nullptr) {
    std::erase_if(tests, [&](const model::LitmusTest& t) {
      return t.name != test_filter;
    });
    if (tests.empty()) {
      std::fprintf(stderr, "no annotatable litmus test named '%s'\n",
                   test_filter);
      return 2;
    }
  }

  if (replay != nullptr) {
    if (backends.size() != 1 || tests.size() != 1) {
      std::fprintf(stderr, "--replay needs --backend= and --test=\n");
      return 2;
    }
    const explore::LitmusTarget target(tests[0], backends[0], {},
                                       config_machine);
    return run_replay(session, target, rt::to_string(target.target()), replay,
                      trace_out);
  }

  std::printf("schedule exploration: preemptions<=%d, horizon=%llu, "
              "jobs=%d\n\n",
              cfg.preemption_bound,
              static_cast<unsigned long long>(cfg.horizon), jobs);
  util::Table table;
  table.add_row({"back-end", "test", "explored", "traces", "failing"});
  int rc = 0;
  uint64_t failing_total = 0;
  for (rt::Target t : backends) {
    for (const auto& test : tests) {
      const explore::LitmusTarget target(test, t, {}, config_machine);
      const auto rep = session.explore(target);
      table.add_row({rt::to_string(t), test.name,
                     std::to_string(rep.explored) +
                         (rep.truncated ? "+" : ""),
                     std::to_string(rep.distinct_traces),
                     std::to_string(rep.failing)});
      // Per-(back-end, test) outcome set, so CI can assert the numbers
      // themselves rather than just the exit code.
      const std::string key =
          std::string(rt::to_string(t)) + "_" + test.name;
      json.add(key + "_explored", rep.explored);
      json.add(key + "_traces", rep.distinct_traces);
      json.add(key + "_failing", rep.failing);
      json.add(key + "_allowed_outcomes",
               static_cast<uint64_t>(target.allowed_outcomes()));
      failing_total += rep.failing;
      if (rep.failing != 0) {
        rc = 1;
        std::printf("!! %s on %s: schedule \"%s\": %s\n", test.name.c_str(),
                    rt::to_string(t),
                    explore::to_string(rep.first_failing).c_str(),
                    rep.first_failing_message.c_str());
      }
    }
  }
  std::printf("%s", table.render().c_str());
  json.add("failing_total", failing_total);
  std::printf(
      "\nevery explored schedule re-runs the program deterministically; a\n"
      "failing schedule is reproducible via --replay=<decision string>.\n");
  return json.maybe_write(argc, argv) ? rc : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A named contract violation (e.g. a back-end whose machine requirements
  // the selected --config cannot satisfy) is a clean usage error, not an
  // abort: print the message and exit nonzero so CI can grep for it.
  try {
    return run_main(argc, argv);
  } catch (const util::CheckFailure& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
