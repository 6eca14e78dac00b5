// pmc_bench: the repository's benchmark (bench/pmcbench/README.md).
//
//   pmc_bench --workload=W [--seed=N] [--seconds=S] [--trace=0|1] [--quick]
//   pmc_bench --all [--seed=N] [--quick]
//   pmc_bench --compare=A,B
//
// One workload per process, so peak_rss_mb is that workload's own. With
// --seconds the run measures rounds until S seconds have passed, stopping
// after the cell that crosses S; without it, the workload's fixed round
// count. --trace=1 (or --traced) alternates untraced and traced whole rounds
// and reports the per-layer metrics instead of the end-to-end ones. The last
// line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every flag takes "--flag=value" or "--flag value"; an unknown flag or
// workload exits 2. A measuring run first re-executes itself with address-
// space randomization off (exec_without_aslr).
#include <spawn.h>
#include <sys/personality.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/json_read.h"
#include "obs/json.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace pmc::pmcbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Replaces this process image, once, by itself with address-space layout
/// randomization off, so that every run places its heap, stacks and
/// mappings alike. With randomization on, one fig8_validated input
/// measured in alternating processes varied by ±9 % against ±3 % with it
/// off. Where the host refuses, the run goes on with randomization on.
void exec_without_aslr(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) ==
      -1) {
    return;
  }
  std::error_code ec;
  const std::string self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) execv(self.c_str(), argv);
}

// setup_s takes at least kMinSetupSamples samples, and more while under
// kSetupBudgetS of set-up time (up to kMaxSetupSamples), so a set-up of
// microseconds (config parsing) still gets a steady median while one of
// seconds (the litmus outcome enumeration) costs only the minimum.
constexpr size_t kMinSetupSamples = 3;
constexpr double kSetupBudgetS = 0.5;
constexpr size_t kMaxSetupSamples = 1000;
constexpr double kSetupBatchS = 1e-3;
constexpr double kSetupSliceS = 0.05;

/// The samples of setup_s: fresh set-ups (config parsing and target
/// construction), taken in slices spread over the run, so that a host
/// slowdown shorter than the run cannot own the metric. A sample times a
/// batch of set-ups, each torn down before the next, and divides by the
/// batch size. The batch doubles until it lasts kSetupBatchS, so a set-up
/// of nanoseconds is not lost in the clock's resolution while one of
/// seconds is a batch of its own; shorter batches only calibrate.
struct SetupSamples {
  std::vector<double> per_setup_s;
  size_t batch = 1;  // set-ups per timed batch
  double spent_s = 0;

  /// Folds in one timed batch of `batch` set-ups.
  void add(double batch_s) {
    spent_s += batch_s;
    if (batch_s < kSetupBatchS) {
      batch *= 2;
    } else {
      per_setup_s.push_back(batch_s / static_cast<double>(batch));
    }
  }
  bool wants_more() const {
    return per_setup_s.size() < kMinSetupSamples ||
           (spent_s < kSetupBudgetS && per_setup_s.size() < kMaxSetupSamples);
  }
  /// Timed batches for kSetupSliceS, at least one.
  void slice(const WorkloadDef& def, const RunConfig& cfg) {
    const auto t_slice = Clock::now();
    do {
      const auto t0 = Clock::now();
      for (size_t i = 0; i < batch; ++i) def.make(cfg, nullptr);
      add(seconds_since(t0));
    } while (seconds_since(t_slice) < kSetupSliceS);
  }
};

struct Flags {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;  // 0: the workload's fixed round count
  bool traced = false;
  bool all = false;
  bool quick = false;
  std::string compare;
};

void usage(std::FILE* f) {
  std::fprintf(f,
               "usage: pmc_bench --workload=W [--seed=N] [--seconds=S] "
               "[--trace=0|1 | --traced] [--quick]\n"
               "       pmc_bench --all [--seed=N] [--quick]\n"
               "       pmc_bench --compare=A,B\n"
               "workloads:");
  for (const WorkloadDef& d : workload_defs()) std::fprintf(f, " %s", d.name);
  std::fprintf(f, "\n");
}

/// Strict parsing: anything unknown or malformed prints why and the usage,
/// and the caller exits 2.
bool parse_flags(int argc, char** argv, Flags* f) {
  const auto bad = [](const std::string& msg) {
    std::fprintf(stderr, "pmc_bench: %s\n", msg.c_str());
    usage(stderr);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return bad("unexpected argument '" + arg + "'");
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    }
    const bool boolean = name == "traced" || name == "all" ||
                         name == "quick" || name == "help";
    const bool valued = name == "workload" || name == "seed" ||
                        name == "seconds" || name == "trace" ||
                        name == "compare";
    if (!boolean && !valued) return bad("unknown flag --" + name);
    if (boolean && has_value) return bad("--" + name + " takes no value");
    if (valued && !has_value) {
      if (i + 1 >= argc) return bad("--" + name + " needs a value");
      value = argv[++i];
    }
    char* end = nullptr;
    if (name == "help") {
      usage(stdout);
      std::exit(0);
    } else if (name == "workload") {
      f->workload = find_workload(value);
      if (f->workload == nullptr) return bad("unknown workload '" + value + "'");
    } else if (name == "seed") {
      errno = 0;
      f->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno != 0) {
        return bad("--seed wants an unsigned integer, got '" + value + "'");
      }
    } else if (name == "seconds") {
      f->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(f->seconds > 0) ||
          f->seconds > 3600) {
        return bad("--seconds wants a number in (0, 3600], got '" + value +
                   "'");
      }
    } else if (name == "trace") {
      if (value != "0" && value != "1") return bad("--trace wants 0 or 1");
      f->traced = value == "1";
    } else if (name == "traced") {
      f->traced = true;
    } else if (name == "all") {
      f->all = true;
    } else if (name == "quick") {
      f->quick = true;
    } else if (name == "compare") {
      const size_t comma = value.find(',');
      if (comma == std::string::npos || comma == 0 ||
          comma + 1 == value.size() ||
          value.find(',', comma + 1) != std::string::npos) {
        return bad("--compare wants two directories, A,B");
      }
      f->compare = value;
    }
  }
  const int modes = (f->workload != nullptr) + f->all + !f->compare.empty();
  if (modes != 1) {
    return bad("pick exactly one of --workload, --all and --compare");
  }
  if (f->workload == nullptr && (f->seconds > 0 || f->traced)) {
    return bad("--seconds and --trace apply to --workload only");
  }
  return true;
}

/// Runs this executable with `args` and waits for it; returns its exit
/// status. The child's stdout is echoed and kept in `out`.
int run_self(const std::vector<std::string>& args, std::string* out) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<std::string> full = {self};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::fflush(stdout);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  char buf[4096];
  ssize_t n = 0;
  while (rc == 0 && ((n = read(fds[0], buf, sizeof buf)) > 0 ||
                     (n < 0 && errno == EINTR))) {
    if (n <= 0) continue;
    std::fwrite(buf, 1, static_cast<size_t>(n), stdout);
    out->append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("cannot start " + self);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// This process image's peak resident set (VmHWM). getrusage's ru_maxrss
/// is not used: it survives exec, so a run started through fork+exec from
/// a larger parent (a Python script, say) would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median over samples of every key any sample carries (absent = 0).
Layers median_layers(const std::vector<Sample>& samples) {
  Layers out;
  for (const Sample& s : samples) {
    for (const auto& kv : s.layers) out[kv.first] = 0;
  }
  for (auto& [key, value] : out) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(get(s.layers, key));
    value = median(v);
  }
  return out;
}

double median_seconds(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s.seconds);
  return median(v);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (const Metric& m : metrics) {
    if (s.size() > 1) s += ", ";
    s += pmc::obs::json_quote(m.name) + ": {\"value\": " + json_num(m.value) +
         ", \"unit\": " + pmc::obs::json_quote(m.unit) + "}";
  }
  return s + "}";
}

/// The traced rounds' per-layer metrics: per cell the median over rounds,
/// summed over the cells (one round's worth), plus the derived ratios and
/// the untraced rounds' iteration-time percentiles.
std::vector<Metric> layer_report(const Workload& w,
                                 const std::vector<std::vector<Sample>>& plain,
                                 const std::vector<std::vector<Sample>>& traced) {
  std::vector<Layers> per_cell;
  Layers sum = w.setup_layers();
  std::vector<double> cell_s;
  double round_s = 0;
  double traced_round_s = 0;
  for (size_t c = 0; c < traced.size(); ++c) {
    per_cell.push_back(median_layers(traced[c]));
    for (const auto& [key, value] : per_cell.back()) sum[key] += value;
    cell_s.push_back(median_seconds(plain[c]));
    round_s += cell_s.back();
    traced_round_s += median_seconds(traced[c]);
  }
  w.derive(per_cell, sum);
  sum["iter_s_p50"] = median(cell_s);
  sum["iter_s_p90"] = percentile(cell_s, 90);
  sum["sim.ns_per_decision"] =
      ratio(get(sum, "sim.run_s") * 1e9, get(sum, "sim.decisions"));
  sum["sim.host_ns_per_kcycle"] =
      ratio(get(sum, "sim.run_s") * 1e9, get(sum, "sim.core_cycles") / 1e3);
  sum["sim.mcycles_per_s"] = ratio(get(sum, "sim.core_cycles") / 1e6, round_s);
  sum["sim.dcache_hit_ratio"] =
      ratio(get(sum, "sim.dcache_hits"), get(sum, "sim.dcache_accesses"));
  sum["model.validate_ns_per_event"] = ratio(
      get(sum, "model.validate_s") * 1e9, get(sum, "model.validated_events"));
  sum["explore.schedules_per_s"] =
      ratio(get(sum, "explore.schedules"), get(sum, "explore.check_s"));
  sum["explore.snapshot_hit_ratio"] =
      ratio(get(sum, "explore.snapshot_hits"),
            get(sum, "explore.snapshot_hits") +
                get(sum, "explore.snapshot_misses"));
  sum["bench.trace_overhead_pct"] =
      100.0 * (ratio(traced_round_s, round_s) - 1);
  std::vector<Metric> out;
  for (const LayerMetric& m : layer_metrics()) {
    out.push_back({m.name, m.unit, get(sum, m.name)});
  }
  return out;
}

int run_workload(const WorkloadDef& def, const Flags& f) {
  const RunConfig cfg{f.seed, f.quick};
  SpanLog span_log;
  SpanLog* spans = f.traced ? &span_log : nullptr;
  std::printf("pmc_bench %s: seed %llu (%s)%s%s\n", def.name,
              static_cast<unsigned long long>(f.seed),
              def.seeded ? "the kernel inputs follow the seed"
                         : "fixed programs: the seed is ignored",
              f.quick ? ", quick sizes" : "", f.traced ? ", traced" : "");

  // The set-up the run measures is setup_s's first sample; more set-ups
  // are sampled in a slice before each round while the run wants them.
  // --quick and traced runs, which do not report setup_s, set up once.
  const bool resample = !f.quick && spans == nullptr;
  SetupSamples setup;
  const auto t_setup = Clock::now();
  const std::unique_ptr<Workload> w = def.make(cfg, spans);
  setup.add(seconds_since(t_setup));

  // Measurement: rounds in a closed loop, each on a fresh input draw,
  // untraced; when tracing, every untraced round is followed by a traced
  // round on the same draw. Set-up slices do not count as measured time.
  // An untraced time-bounded run ends after the cell that crosses the time
  // limit, once every cell has run, so a long round (about 11 s on
  // fig8_mesh256) cannot stretch the run by up to a round; the cells of the
  // last, partial round have one sample more than the rest.
  const size_t cells = w->cells();
  const size_t rounds = f.quick || f.traced ? 1 : static_cast<size_t>(def.rounds);
  std::vector<std::vector<Sample>> plain(cells);
  std::vector<std::vector<Sample>> traced(cells);
  int64_t iteration = 0;
  double slices_s = 0;
  const auto t_measure = Clock::now();
  const auto time_up = [&] {
    return seconds_since(t_measure) - slices_s >= f.seconds;
  };
  for (uint64_t round = 0;; ++round) {
    if (resample && setup.wants_more()) {
      const auto t_slice = Clock::now();
      setup.slice(def, cfg);
      slices_s += seconds_since(t_slice);
    }
    const bool trace_round = spans != nullptr && round % 2 == 1;
    const uint64_t draw = !def.seeded ? 0 : spans != nullptr ? round / 2 : round;
    const bool may_cut = spans == nullptr && f.seconds > 0 && round > 0;
    std::vector<Sample> samples;
    for (size_t c = 0; c < cells && !(may_cut && time_up()); ++c) {
      samples.push_back(
          w->run(c, draw, trace_round ? spans : nullptr, iteration++));
      samples.back().draw = draw;
    }
    w->check_round(samples);
    for (size_t c = 0; c < samples.size(); ++c) {
      (trace_round ? traced : plain)[c].push_back(std::move(samples[c]));
    }
    const bool enough = f.seconds > 0 ? time_up() : plain[0].size() >= rounds;
    if (enough && (spans == nullptr || traced[0].size() >= plain[0].size())) {
      break;
    }
  }
  const double measured_s = seconds_since(t_measure) - slices_s;

  // Outputs repeat exactly: every run of a cell on one draw, traced or
  // not, must give the first one's deterministic count and digest.
  // count_total, the deterministic key of the report, is draw 0's.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double count_total = 0;
  std::vector<std::string> errors;
  for (size_t c = 0; c < cells; ++c) {
    std::map<uint64_t, const Sample*> ref;  // by draw
    for (auto* set : {&plain[c], &traced[c]}) {
      for (Sample& s : *set) {
        const Sample*& r = ref[s.draw];
        if (s.ok && r == nullptr) r = &s;
        if (s.ok && (s.count != r->count || s.digest != r->digest)) {
          s.ok = false;
          s.error = "nondeterministic: count " + std::to_string(s.count) +
                    ", first run of the draw " + std::to_string(r->count);
        }
        ++attempted;
        if (!s.ok) {
          ++failed;
          errors.push_back(w->cell_name(c) + ": " + s.error);
        }
      }
    }
    if (ref[0] != nullptr) count_total += static_cast<double>(ref[0]->count);
  }

  // End-to-end metrics, from the untraced rounds. round_s sums the cells'
  // median times, so it is one round's worth however many rounds fitted.
  double round_s = 0;
  size_t measured = 0;
  std::printf("\n%-34s %8s %12s %20s\n", "cell", "samples", "median s",
              def.count_key);
  for (size_t c = 0; c < cells; ++c) {
    const double cell_s = median_seconds(plain[c]);
    round_s += cell_s;
    measured += plain[c].size();
    std::printf("%-34s %8zu %12.6f %20llu\n", w->cell_name(c).c_str(),
                plain[c].size(), cell_s,
                static_cast<unsigned long long>(plain[c][0].count));
  }
  // A run that set up once reports that set-up, however short.
  const std::vector<Metric> e2e = {
      {"setup_s", "s",
       setup.per_setup_s.empty() ? setup.spent_s : median(setup.per_setup_s)},
      {"round_s", "s", round_s},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  std::printf("\nset-up: %zu sample(s) in batches of up to %zu; measured "
              "%zu untraced samples of %zu cells in %.2f s\n",
              setup.per_setup_s.size(), setup.batch, measured, cells,
              measured_s);
  for (const Metric& m : e2e) {
    std::printf("  %-12s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // Per-layer metrics, from the traced rounds.
  std::vector<Metric> layers;
  bool written = true;
  if (spans != nullptr) {
    layers = layer_report(*w, plain, traced);
    FlatReport flat;
    std::printf("\nper-layer metrics (%zu traced round(s); iter_s_p90 is the "
                "nearest rank over the %zu untraced cell medians, %zu above "
                "it):\n",
                traced[0].size(), cells, samples_above(cells, 90));
    for (const Metric& m : layers) {
      flat.emplace_back(std::string(def.name) + "." + m.name, m.value);
      std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::ofstream layers_file("BENCH_pmc_layers.json");
    layers_file << flat_json(flat);
    layers_file.close();
    written = layers_file.good() && span_log.write_chrome("BENCH_pmc_spans.json");
    std::printf("%s BENCH_pmc_layers.json and BENCH_pmc_spans.json\n",
                written ? "wrote" : "!! could not write");
  }

  for (size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::printf("!! %s\n", errors[i].c_str());
  }
  const bool correct = failed == 0 && written;
  std::printf("counts {%s: %s}\n", pmc::obs::json_quote(def.count_key).c_str(),
              json_num(count_total).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(spans != nullptr ? layers : e2e).c_str());
  return correct ? 0 : 1;
}

/// Folds one child's output (its "counts" line and its JSON result line)
/// into the flat report; false when the child's result says incorrect.
bool fold_result(const std::string& w, const std::string& output,
                 FlatReport* report) {
  std::istringstream lines(output);
  std::string line;
  std::string last;
  std::string counts;
  while (std::getline(lines, line)) {
    if (line.rfind("counts ", 0) == 0) counts = line.substr(7);
    if (!line.empty()) last = line;
  }
  const pmc::fuzz::JsonValue r = pmc::fuzz::json_parse(last, w);
  const double attempted = static_cast<double>(
      r.get("attempted", w, "attempted").as_u64(w, "attempted"));
  const double failed =
      static_cast<double>(r.get("failed", w, "failed").as_u64(w, "failed"));
  const pmc::fuzz::JsonValue& metrics = r.get("metrics", w, "metrics");
  metrics.require_object(w, "metrics");
  for (const auto& [name, m] : metrics.members) {
    report->emplace_back(
        w + "." + name,
        std::strtod(m.get("value", w, name).literal.c_str(), nullptr));
  }
  report->emplace_back(w + ".samples", attempted);
  report->emplace_back(w + ".fail_ratio", ratio(failed, attempted));
  for (const auto& [key, value] : read_flat_json(counts, w + " counts")) {
    report->emplace_back(w + "." + key, value);
  }
  return r.get("correct", w, "correct").as_bool(w, "correct");
}

/// --all: every workload in its own process, one at a time; BENCH_pmc.json
/// keys each metric as <workload>.<metric>.
int run_all(const Flags& f) {
  FlatReport report = {
      {"seed", static_cast<double>(f.seed)},
      {"host_cpus", static_cast<double>(std::thread::hardware_concurrency())}};
  bool ok = true;
  for (const WorkloadDef& def : workload_defs()) {
    std::vector<std::string> args = {std::string("--workload=") + def.name,
                                     "--seed=" + std::to_string(f.seed)};
    if (f.quick) args.push_back("--quick");
    std::string output;
    ok &= run_self(args, &output) == 0;
    std::printf("\n");
    try {
      ok &= fold_result(def.name, output, &report);
    } catch (const std::exception& e) {
      std::printf("!! %s: unreadable result: %s\n", def.name, e.what());
      ok = false;
    }
  }
  std::ofstream file("BENCH_pmc.json");
  file << flat_json(report);
  file.close();
  ok &= file.good();
  std::printf("wrote BENCH_pmc.json%s\n", ok ? "" : "; some check FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (!parse_flags(argc, argv, &f)) return 2;
  if (f.compare.empty()) exec_without_aslr(argv);
  try {
    if (!f.compare.empty()) {
      BenchmarkSpec spec;
      try {
        spec = read_benchmark_spec("BENCHMARK.json");
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "pmc_bench: --compare reads its bounds from "
                     "BENCHMARK.json in the working directory: %s\n",
                     e.what());
        return 2;
      }
      const size_t comma = f.compare.find(',');
      return compare_dirs(f.compare.substr(0, comma),
                          f.compare.substr(comma + 1), spec);
    }
    if (f.all) return run_all(f);
    return run_workload(*f.workload, f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmc_bench: %s\n", e.what());
    return 1;
  }
}
