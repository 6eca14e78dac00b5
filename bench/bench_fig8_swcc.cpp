// Regenerates paper Fig. 8: "Measured execution time and processor
// utilization of non-cached and software cache coherency".
//
// Three SPLASH-2-like kernels run on the 32-core machine twice: once with
// shared data uncached ("no CC") and once with the transparent software
// cache coherency protocol ("SWCC"). For each run the harness prints the
// stacked time decomposition normalized to the app's no-CC run, the core
// utilization, and the flush-instruction overhead — the same rows the
// paper reports (utilization 38%→70% for RADIOSITY, ≈22% mean improvement,
// flush overhead ≤0.66%).
//
// Flags: --cores=N (default 32), --scale=N per-mille workload scale
// (default 1000), --validate (adds the Def. 12 trace check; touches timing).
// --config=a.cfg,b.cfg appends a scaled sweep: the RADIOSITY-like kernel on
// each described machine (MachineConfig::from_file) under no-CC and SWCC,
// with per-core-count keys and the NoC/port contention metrics those
// configs enable.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/radiosity_like.h"
#include "apps/raytrace_like.h"
#include "apps/volrend_like.h"
#include "bench/bench_common.h"
#include "util/check.h"
#include "util/table.h"

namespace {

using namespace pmc;
using namespace pmc::bench;
using namespace pmc::apps;

ProgramOptions base_opts(Target t, int cores, bool validate) {
  ProgramOptions o;
  o.target = t;
  o.cores = cores;
  o.machine = sim::MachineConfig::ml605(cores);
  o.machine.sdram_bytes = 8 * 1024 * 1024;
  o.machine.max_cycles = UINT64_C(40'000'000'000);
  o.validate = validate;
  o.lock_capacity = 4096;
  return o;
}

ProgramOptions config_opts(Target t, const sim::MachineConfig& mc) {
  ProgramOptions o;
  o.target = t;
  o.cores = mc.num_cores;
  o.machine = mc;
  o.validate = false;  // the Def. 12 trace dominates run time at 256 cores
  o.lock_capacity = 4096;
  return o;
}

std::unique_ptr<App> make_app(int which, int64_t scale) {
  switch (which) {
    case 0: {
      RadiosityConfig c;
      c.patches = static_cast<int>(768 * scale / 1000);
      c.neighbors = 8;
      c.iterations = 3;
      return std::make_unique<RadiosityLike>(c);
    }
    case 1: {
      RaytraceConfig c;
      c.width = static_cast<int>(64 * scale / 1000);
      c.height = static_cast<int>(64 * scale / 1000);
      c.spheres = 28;
      return std::make_unique<RaytraceLike>(c);
    }
    default: {
      VolrendConfig c;
      c.volume = static_cast<int>(24 * scale / 1000);
      c.image = static_cast<int>(64 * scale / 1000);
      return std::make_unique<VolrendLike>(c);
    }
  }
}

const char* kNames[3] = {"RADIOSITY-like", "RAYTRACE-like", "VOLREND-like"};

}  // namespace

int main(int argc, char** argv) {
  if (!known_flags_only(argc, argv,
                        {"cores=", "scale=", "validate", "config=", "json",
                         "json="})) {
    return 2;
  }
  const int cores = static_cast<int>(flag_int(argc, argv, "cores", 32));
  const int64_t scale = flag_int(argc, argv, "scale", 1000);
  const bool validate = flag_set(argc, argv, "validate");
  const char* config_list = flag_str(argc, argv, "config", nullptr);

  std::printf(
      "== Fig. 8: execution time breakdown, no-CC vs software cache "
      "coherency (%d cores) ==\n\n",
      cores);

  util::Table table;
  table.add_row({"app", "config", "exec time", "busy", "I-stall", "priv rd",
                 "shared rd", "sync", "write", "flush", "util"});
  JsonReport json("fig8_swcc");
  json.add("cores", cores);
  double improvements = 0;
  double flush_worst = 0;
  for (int which = 0; which < 3; ++which) {
    Breakdown nocc, swcc;
    uint64_t checksum_nocc = 0, checksum_swcc = 0;
    for (int cfg = 0; cfg < 2; ++cfg) {
      const Target target = cfg == 0 ? Target::kNoCC : Target::kSWCC;
      auto app = make_app(which, scale);
      const auto r = run_app(*app, base_opts(target, cores, validate));
      if (validate && !r.validated_ok) {
        std::printf("!! %s on %s violated the model: %s\n", kNames[which],
                    rt::to_string(target), r.validation_error.c_str());
        return 1;
      }
      (cfg == 0 ? nocc : swcc) = Breakdown::from(r.stats);
      (cfg == 0 ? checksum_nocc : checksum_swcc) = r.checksum;
    }
    if (checksum_nocc != checksum_swcc) {
      std::printf("!! checksum mismatch between configurations\n");
      return 1;
    }
    const double base = static_cast<double>(nocc.total);
    for (int cfg = 0; cfg < 2; ++cfg) {
      const Breakdown& b = cfg == 0 ? nocc : swcc;
      table.add_row({kNames[which], cfg == 0 ? "no CC" : "SWCC",
                     pc(static_cast<double>(b.total), base),
                     pc(static_cast<double>(b.busy), base),
                     pc(static_cast<double>(b.ifetch), base),
                     pc(static_cast<double>(b.priv_read), base),
                     pc(static_cast<double>(b.shared_read), base),
                     pc(static_cast<double>(b.sync), base),
                     pc(static_cast<double>(b.write), base),
                     pc(static_cast<double>(b.flush), base),
                     pc(static_cast<double>(b.busy),
                        static_cast<double>(b.total))});
    }
    const double improvement =
        100.0 * (1.0 - static_cast<double>(swcc.total) / base);
    improvements += improvement;
    const double flush_pct = 100.0 * static_cast<double>(swcc.flush) /
                             static_cast<double>(swcc.total);
    flush_worst = std::max(flush_worst, flush_pct);
    std::printf("%s: SWCC improves execution time by %.1f%%; "
                "flush overhead %.2f%% of run time\n",
                kNames[which], improvement, flush_pct);
    const char* kSlugs[3] = {"radiosity", "raytrace", "volrend"};
    json.add(std::string(kSlugs[which]) + "_nocc_cycles", nocc.total);
    json.add(std::string(kSlugs[which]) + "_swcc_cycles", swcc.total);
    json.add(std::string(kSlugs[which]) + "_improvement_pct", improvement);
    json.add(std::string(kSlugs[which]) + "_flush_pct", flush_pct);
  }
  std::printf("\naverage SWCC improvement: %.1f%%  (paper: 22%%)\n",
              improvements / 3.0);
  std::printf("worst flush overhead: %.2f%%  (paper: <= 0.66%%)\n\n",
              flush_worst);
  std::printf("%s\n", table.render().c_str());
  std::printf("columns are %% of the app's no-CC aggregate cycles; "
              "'util' = busy/total of that run.\n");
  std::printf("'sync' holds lock/barrier stalls and wait backoff, which the "
              "paper folds into its shared-read bar.\n");
  json.add("avg_improvement_pct", improvements / 3.0);
  json.add("worst_flush_pct", flush_worst);

  if (config_list != nullptr) {
    // Scaled sweep: RADIOSITY-like (the barrier-heavy kernel whose release
    // fan-out exercises the mesh links) per described machine, no-CC vs
    // SWCC, plus the contention totals the mesh NoC model accounts.
    std::printf("\n== scaled sweep: RADIOSITY-like per machine config ==\n\n");
    util::Table st;
    st.add_row({"config", "cores", "no-CC cycles", "SWCC cycles", "improve",
                "link-stall cyc", "port-wait cyc"});
    for (const std::string& path : split_csv(config_list)) {
      sim::MachineConfig mc;
      try {
        mc = sim::MachineConfig::from_file(path);
      } catch (const util::CheckFailure& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
      const std::string prefix = "c" + std::to_string(mc.num_cores) + "_";
      uint64_t cycles[2] = {0, 0};
      uint64_t checksums[2] = {0, 0};
      AppRunResult swcc_run;
      for (int cfg = 0; cfg < 2; ++cfg) {
        const Target target = cfg == 0 ? Target::kNoCC : Target::kSWCC;
        auto app = make_app(0, scale);
        const auto r = run_app(*app, config_opts(target, mc));
        cycles[cfg] = Breakdown::from(r.stats).total;
        checksums[cfg] = r.checksum;
        if (cfg == 1) swcc_run = r;
      }
      if (checksums[0] != checksums[1]) {
        std::printf("!! checksum mismatch between configurations (%s)\n",
                    path.c_str());
        return 1;
      }
      const double improvement =
          100.0 * (1.0 - static_cast<double>(cycles[1]) /
                             static_cast<double>(cycles[0]));
      const obs::MetricsRegistry& reg = swcc_run.metrics;
      const uint64_t link_stall = reg.counter("noc.link_stall_cycles");
      const uint64_t port_wait = reg.counter("port.wait_cycles");
      st.add_row({path, std::to_string(mc.num_cores), fmt_u64(cycles[0]),
                  fmt_u64(cycles[1]), pc(improvement, 100.0),
                  fmt_u64(link_stall), fmt_u64(port_wait)});
      json.add(prefix + "radiosity_nocc_cycles", cycles[0]);
      json.add(prefix + "radiosity_swcc_cycles", cycles[1]);
      json.add(prefix + "improvement_pct", improvement);
      json.add(prefix + "noc_link_stall_cycles", link_stall);
      json.add(prefix + "noc_stalled_packets",
               reg.counter("noc.stalled_packets"));
      json.add(prefix + "port_wait_cycles", port_wait);
      if (const obs::Histogram* h = reg.histogram("port.sdram.wait")) {
        json.add(prefix + "port_queue_p50", h->quantile(0.50));
        json.add(prefix + "port_queue_p99", h->quantile(0.99));
      }
    }
    std::printf("%s\n", st.render().c_str());
  }
  if (!json.maybe_write(argc, argv)) return 1;
  return 0;
}
