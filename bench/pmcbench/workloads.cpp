#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <stdexcept>

#include "apps/radiosity_like.h"
#include "apps/raytrace_like.h"
#include "apps/volrend_like.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace pmc::pmcbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t ns_since(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Every simulated run of the benchmark asks for fiber execution here, and
/// only here.
rt::ProgramOptions with_fibers(rt::ProgramOptions opts) {
  opts.fiber_execution = true;
  return opts;
}

/// A fresh validator built exactly like Program::revalidate's, fed the same
/// trace: what the run's own validation cost, measured from outside.
model::TraceValidator replay_validation(const rt::Program& prog) {
  const model::Execution& ex = prog.validator()->execution();
  model::TraceValidator v(
      ex.num_procs(), ex.num_locs(),
      std::vector<uint64_t>(static_cast<size_t>(ex.num_locs()), 0));
  v.on_events(prog.trace());
  return v;
}

// -- fig8_mesh256 / fig8_validated -------------------------------------------

/// Pass-through policy: always the default min-time pick (which reproduces
/// the unpoliced schedule bit for bit), counting the decision points.
class CountingPolicy final : public sim::SchedulePolicy {
 public:
  int pick(const sim::YieldPoint&,
           const std::vector<sim::ScheduleCandidate>&) override {
    ++decisions;
    return 0;
  }
  uint64_t decisions = 0;
};

uint64_t makespan_of(rt::Program& prog) {
  uint64_t cycles = 0;
  for (int core = 0; core < prog.cores(); ++core) {
    cycles = std::max(cycles, prog.machine()->stats(core).cycles_total);
  }
  return cycles;
}

enum Kernel { kRadiosity, kRaytrace, kVolrend, kKernels };
constexpr const char* kKernelNames[kKernels] = {"radiosity", "raytrace",
                                                "volrend"};

class Fig8Workload final : public Workload {
 public:
  Fig8Workload(const RunConfig& cfg, sim::MachineConfig machine, bool validate,
               int radiosity_patches, const std::vector<rt::Target>& targets)
      : machine_(std::move(machine)),
        validate_(validate),
        scale_(cfg.quick ? 250 : 1000),
        patches_(radiosity_patches * static_cast<int>(scale_) / 1000),
        seed_(cfg.seed) {
    for (int k = 0; k < kKernels; ++k) {
      for (const rt::Target t : targets) cells_.push_back({k, t});
    }
    sdram_wait_.resize(cells_.size());
  }

  size_t cells() const override { return cells_.size(); }
  std::string cell_name(size_t cell) const override {
    return std::string(kKernelNames[cells_[cell].kernel]) + "@" +
           rt::to_string(cells_[cell].target);
  }
  Sample run(size_t cell, uint64_t draw, SpanLog* spans,
             int64_t iteration) override;
  void check_round(std::vector<Sample>& round) const override;
  void derive(const std::vector<Layers>& per_cell, Layers& out) const override;

 private:
  struct Cell {
    int kernel;
    rt::Target target;
  };

  std::unique_ptr<apps::App> make_app(int kernel, uint64_t draw) const;
  rt::ProgramOptions options(rt::Target target) const;
  /// Re-runs the cell untimed, with the timed run's options (validation
  /// included: turning it off moves the makespan), under CountingPolicy;
  /// returns the decision count after asserting the makespan did not move.
  uint64_t count_decisions(size_t cell, uint64_t draw, uint64_t makespan,
                           SpanLog* spans, int64_t iteration) const;

  sim::MachineConfig machine_;
  bool validate_;
  int64_t scale_;  // per-mille of the full Fig. 8 sizes
  int patches_;
  uint64_t seed_;
  std::vector<Cell> cells_;
  std::vector<obs::Histogram> sdram_wait_;  // per cell, over traced runs
  uint64_t hash_sink_ = 0;  // keeps the measured re-hash observable
};

std::unique_ptr<apps::App> Fig8Workload::make_app(int kernel,
                                                  uint64_t draw) const {
  // bench_fig8_swcc's full-scale shapes; the draw perturbs only the seeds.
  const uint64_t mix = input_mix(seed_, draw);
  switch (kernel) {
    case kRadiosity: {
      apps::RadiosityConfig c;
      c.patches = patches_;
      c.neighbors = 8;
      c.iterations = 3;
      c.seed ^= mix;
      return std::make_unique<apps::RadiosityLike>(c);
    }
    case kRaytrace: {
      apps::RaytraceConfig c;
      c.width = static_cast<int>(64 * scale_ / 1000);
      c.height = static_cast<int>(64 * scale_ / 1000);
      c.spheres = 28;
      c.seed ^= mix;
      return std::make_unique<apps::RaytraceLike>(c);
    }
    default: {
      apps::VolrendConfig c;
      c.volume = static_cast<int>(24 * scale_ / 1000);
      c.image = static_cast<int>(64 * scale_ / 1000);
      c.seed ^= mix;
      return std::make_unique<apps::VolrendLike>(c);
    }
  }
}

rt::ProgramOptions Fig8Workload::options(rt::Target target) const {
  rt::ProgramOptions o;
  o.target = target;
  o.cores = machine_.num_cores;
  o.machine = machine_;
  o.validate = validate_;
  o.lock_capacity = 4096;
  return with_fibers(o);
}

Sample Fig8Workload::run(size_t cell, uint64_t draw, SpanLog* spans,
                         int64_t iteration) {
  const Cell& c = cells_[cell];
  Sample s;
  ScopedSpan iter(spans, "iteration " + cell_name(cell), iteration);
  const auto t0 = Clock::now();
  double replica_s = 0;  // measurement-only calls, subtracted below
  try {
    auto app = make_app(c.kernel, draw);
    rt::ProgramOptions opts = options(c.target);
    app->tune(opts);
    std::unique_ptr<rt::Program> prog;
    double build_s = 0;
    double run_s = 0;
    {
      ScopedSpan span(spans, "runtime.build", iteration);
      const auto tb = Clock::now();
      prog = std::make_unique<rt::Program>(opts);
      app->build(*prog);
      build_s = seconds_since(tb);
    }
    {
      ScopedSpan span(spans, "sim.run", iteration);
      const auto tr = Clock::now();
      prog->run([&](rt::Env& env) { app->body(env); });
      run_s = seconds_since(tr);
    }
    {
      ScopedSpan span(spans, "apps.checksum", iteration);
      s.digest = app->checksum(*prog);
    }
    s.count = makespan_of(*prog);
    const model::TraceValidator* v = prog->validator();
    if (v != nullptr && !v->ok()) {
      s.ok = false;
      s.error = "Definition 12 violation: " + v->first_violation();
    } else if (v != nullptr && v->saturated()) {
      s.ok = false;
      s.error = "validation saturated: " + std::to_string(v->num_events()) +
                " events, the rest unchecked";
    }

    if (spans != nullptr) {
      Layers& l = s.layers;
      double validate_s = 0;
      double hb_s = 0;
      if (v != nullptr) {
        {
          ScopedSpan span(spans, "model.validate", iteration);
          span.arg("measurement_only", 1);
          const auto tv = Clock::now();
          const model::TraceValidator replica = replay_validation(*prog);
          validate_s = seconds_since(tv);
          if (replica.ok() != v->ok() || replica.saturated() != v->saturated()) {
            s.ok = false;
            s.error = "re-validation disagrees with the run's own validation";
          }
        }
        {
          ScopedSpan span(spans, "model.hb_hash", iteration);
          span.arg("measurement_only", 1);
          const auto th = Clock::now();
          hash_sink_ ^= explore::hb_trace_hash(prog->trace());
          hb_s = seconds_since(th);
        }
        l["model.validated_events"] = static_cast<double>(v->num_events());
        l["model.saturated_runs"] = v->saturated() ? 1 : 0;
      }
      replica_s = validate_s + hb_s;
      l["runtime.build_s"] = build_s;
      l["sim.run_s"] = run_s - validate_s;
      l["model.validate_s"] = validate_s;
      l["model.hb_hash_s"] = hb_s;
      l["runtime.trace_events"] = static_cast<double>(prog->trace().size());

      const sim::CoreStats st = prog->stats_sum();
      l["sim.makespan_cycles"] = static_cast<double>(s.count);
      l["sim.core_cycles"] = static_cast<double>(st.cycles_total);
      l["sim.busy_cycles"] = static_cast<double>(st.busy);
      l["sim.stall_shared_read_cycles"] =
          static_cast<double>(st.stall_shared_read);
      l["sim.stall_sync_cycles"] = static_cast<double>(st.stall_sync_read);
      l["sim.stall_write_cycles"] = static_cast<double>(st.stall_write);
      l["sim.stall_flush_cycles"] = static_cast<double>(st.stall_flush);
      l["sim.idle_cycles"] = static_cast<double>(st.idle);
      l["sim.dcache_accesses"] =
          static_cast<double>(st.dcache_hits + st.dcache_misses);
      l["sim.dcache_hits"] = static_cast<double>(st.dcache_hits);
      l["sim.writebacks"] = static_cast<double>(st.writebacks);
      l["sim.lines_flushed"] = static_cast<double>(st.lines_flushed);
      l["sim.atomics"] = static_cast<double>(st.atomics);
      obs::MetricsRegistry reg;
      prog->machine()->export_metrics(reg);
      l["sim.noc_packets"] = static_cast<double>(reg.counter("noc.packets"));
      l["sim.noc_link_stall_cycles"] =
          static_cast<double>(reg.counter("noc.link_stall_cycles"));
      l["sim.port_wait_cycles"] =
          static_cast<double>(reg.counter("port.wait_cycles"));
      if (const obs::Histogram* h = reg.histogram("port.sdram.wait")) {
        sdram_wait_[cell].merge(*h);
      }
    }
  } catch (const std::exception& e) {
    s.ok = false;
    s.error = e.what();
  }
  s.seconds = seconds_since(t0) - replica_s;
  iter.finish();

  if (spans != nullptr && s.ok) {
    try {
      s.layers["sim.decisions"] = static_cast<double>(
          count_decisions(cell, draw, s.count, spans, iteration));
    } catch (const std::exception& e) {
      s.ok = false;
      s.error = std::string("count-only pass: ") + e.what();
    }
  }
  return s;
}

uint64_t Fig8Workload::count_decisions(size_t cell, uint64_t draw,
                                       uint64_t makespan, SpanLog* spans,
                                       int64_t iteration) const {
  ScopedSpan span(spans, "sim.count_pass " + cell_name(cell), iteration);
  CountingPolicy policy;
  auto app = make_app(cells_[cell].kernel, draw);
  rt::ProgramOptions opts = options(cells_[cell].target);
  opts.schedule_policy = &policy;
  app->tune(opts);
  rt::Program prog(opts);
  app->build(prog);
  prog.run([&](rt::Env& env) { app->body(env); });
  const uint64_t got = makespan_of(prog);
  if (got != makespan) {
    throw std::runtime_error("a pass-through policy moved the makespan from " +
                             std::to_string(makespan) + " to " +
                             std::to_string(got) + " cycles");
  }
  return policy.decisions;
}

void Fig8Workload::check_round(std::vector<Sample>& round) const {
  // Portability: every back-end computes bit-identical kernel results.
  for (int k = 0; k < kKernels; ++k) {
    const Sample* ref = nullptr;
    bool mismatch = false;
    for (size_t i = 0; i < round.size(); ++i) {
      if (cells_[i].kernel != k || !round[i].ok) continue;
      if (ref == nullptr) ref = &round[i];
      mismatch |= round[i].digest != ref->digest;
    }
    if (!mismatch) continue;
    for (size_t i = 0; i < round.size(); ++i) {
      if (cells_[i].kernel != k || !round[i].ok) continue;
      round[i].ok = false;
      round[i].error = std::string(kKernelNames[k]) +
                       ": checksums differ across back-ends";
    }
  }
}

void Fig8Workload::derive(const std::vector<Layers>& per_cell,
                          Layers& out) const {
  // The two figures the paper publishes for this experiment (Fig. 8: about
  // 22 % mean SWCC improvement, at most 0.66 % flush overhead).
  double improvement = 0;
  int kernels = 0;
  double flush_max = 0;
  obs::Histogram sdram;
  for (int k = 0; k < kKernels; ++k) {
    double nocc = 0;
    double swcc = 0;
    double swcc_flush = 0;
    for (size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].kernel != k) continue;
      const Layers& l = per_cell[i];
      if (cells_[i].target == rt::Target::kNoCC) {
        nocc = get(l, "sim.core_cycles");
      }
      if (cells_[i].target == rt::Target::kSWCC) {
        swcc = get(l, "sim.core_cycles");
        swcc_flush = get(l, "sim.stall_flush_cycles");
      }
    }
    if (nocc > 0 && swcc > 0) {
      improvement += 100.0 * (1.0 - swcc / nocc);
      ++kernels;
      flush_max = std::max(flush_max, 100.0 * swcc_flush / swcc);
    }
  }
  for (const obs::Histogram& h : sdram_wait_) sdram.merge(h);
  out["apps.swcc_improvement_pct"] = kernels > 0 ? improvement / kernels : 0;
  out["apps.flush_pct_max"] = flush_max;
  out["sim.sdram_wait_p99"] = sdram.count > 0 ? sdram.quantile(0.99) : 0;
}

std::unique_ptr<Workload> make_fig8_mesh256(const RunConfig& cfg,
                                            SpanLog* spans) {
  ScopedSpan span(spans, "setup", -1);
  return std::make_unique<Fig8Workload>(
      cfg, sim::MachineConfig::from_file(PMCBENCH_DIR "/configs/mesh256.cfg"),
      /*validate=*/false, /*radiosity_patches=*/768,
      std::vector<rt::Target>{rt::Target::kNoCC, rt::Target::kSWCC});
}

std::unique_ptr<Workload> make_fig8_validated(const RunConfig& cfg,
                                              SpanLog* spans) {
  ScopedSpan span(spans, "setup", -1);
  sim::MachineConfig mc = sim::MachineConfig::ml605(32);
  mc.sdram_bytes = 8 * 1024 * 1024;
  mc.max_cycles = UINT64_C(40'000'000'000);
  // 352 patches keep RADIOSITY's trace under the validator's 20k-op cap
  // with margin on every seed; the full 768 would saturate it and pass
  // unchecked.
  return std::make_unique<Fig8Workload>(
      cfg, mc, /*validate=*/true, /*radiosity_patches=*/352,
      std::vector<rt::Target>{rt::Target::kNoCC, rt::Target::kSWCC,
                              rt::Target::kSPM});
}

// -- litmus_check ------------------------------------------------------------

/// Hook timers shared by every executor of one check (atomic, so they stay
/// right should the session's default engine ever run several workers).
struct HookTimes {
  std::atomic<uint64_t> setup_ns{0};
  std::atomic<uint64_t> setup_calls{0};
  std::atomic<uint64_t> judge_ns{0};
  std::atomic<uint64_t> judge_calls{0};
  std::atomic<uint64_t> validate_ns{0};  // measurement-only re-validation
  std::atomic<uint64_t> hb_ns{0};        // measurement-only re-hash
  std::atomic<uint64_t> events{0};
  std::atomic<uint64_t> saturated{0};
  std::atomic<uint64_t> hash_sink{0};
};

/// Decorates a target's StatefulSpec setup/judge hooks with timers and
/// counters. The exploration is unchanged: same spec, same name, same tree.
class TimedTarget final : public explore::CheckTarget {
 public:
  TimedTarget(const explore::CheckTarget& inner, HookTimes* times)
      : inner_(inner), times_(times) {}

  std::string name() const override { return inner_.name(); }
  explore::RunOutcome run(explore::ReplayPolicy& policy) const override {
    return explore::run_spec_once(make_spec(), policy);
  }
  bool stateful_capable() const override { return true; }

  explore::StatefulSpec make_spec() const override {
    explore::StatefulSpec spec = inner_.make_spec();
    HookTimes* t = times_;
    spec.setup = [t, setup = std::move(spec.setup)](rt::Program& prog) {
      const auto t0 = Clock::now();
      setup(prog);
      t->setup_ns += ns_since(t0);
      ++t->setup_calls;
    };
    spec.judge = [t, judge = std::move(spec.judge)](rt::Program& prog,
                                                    explore::RunOutcome& out) {
      const auto t0 = Clock::now();
      judge(prog, out);
      t->judge_ns += ns_since(t0);
      ++t->judge_calls;
      if (prog.validator() == nullptr) return;
      const auto tv = Clock::now();
      const model::TraceValidator replica = replay_validation(prog);
      t->validate_ns += ns_since(tv);
      t->events += replica.num_events();
      if (replica.saturated()) ++t->saturated;
      const auto th = Clock::now();
      t->hash_sink ^= explore::hb_trace_hash(prog.trace());
      t->hb_ns += ns_since(th);
    };
    return spec;
  }

 private:
  const explore::CheckTarget& inner_;
  HookTimes* times_;
};

class CheckWorkload final : public Workload {
 public:
  CheckWorkload(const explore::SessionOptions& opts,
                std::vector<std::unique_ptr<explore::CheckTarget>> targets,
                Layers setup_layers)
      : session_(opts), targets_(std::move(targets)) {
    setup_layers_ = std::move(setup_layers);
  }

  size_t cells() const override { return targets_.size(); }
  std::string cell_name(size_t cell) const override {
    return targets_[cell]->name();
  }
  Sample run(size_t cell, uint64_t draw, SpanLog* spans,
             int64_t iteration) override;

 private:
  explore::CheckSession session_;
  std::vector<std::unique_ptr<explore::CheckTarget>> targets_;
};

Sample CheckWorkload::run(size_t cell, uint64_t /*draw*/, SpanLog* spans,
                          int64_t iteration) {
  const explore::CheckTarget& target = *targets_[cell];
  const double jobs = session_.options().jobs;
  Sample s;
  ScopedSpan iter(spans, "iteration " + target.name(), iteration);
  const auto t0 = Clock::now();
  double replica_s = 0;
  try {
    ScopedSpan check_span(spans, "explore.check", iteration);
    HookTimes t;
    const auto tc = Clock::now();
    explore::CheckReport rep;
    if (spans != nullptr) {
      rep = session_.check(TimedTarget(target, &t));
    } else {
      rep = session_.check(target);
    }
    // Re-validation and re-hashing ran on the workers, jobs at a time.
    replica_s = static_cast<double>(t.validate_ns + t.hb_ns) / 1e9 / jobs;
    const double check_s = seconds_since(tc) - replica_s;
    s.count = rep.explored;
    s.digest = std::hash<std::string>{}(rep.to_text());
    if (!rep.ok) {
      s.ok = false;
      s.error = std::to_string(rep.failing) + " failing schedule(s): " +
                rep.first_failing_message;
    } else if (rep.truncated) {
      s.ok = false;
      s.error = "truncated at max_schedules";
    } else if (t.saturated != 0) {
      s.ok = false;
      s.error = "validation saturated on " + std::to_string(t.saturated) +
                " schedule(s)";
    }

    if (spans != nullptr) {
      const double setup_s = static_cast<double>(t.setup_ns) / 1e9;
      const double judge_s = static_cast<double>(t.judge_ns) / 1e9;
      const double validate_s = static_cast<double>(t.validate_ns) / 1e9;
      check_span.arg("spec_setup_calls", static_cast<double>(t.setup_calls));
      check_span.arg("spec_setup_ns", static_cast<double>(t.setup_ns));
      check_span.arg("judge_calls", static_cast<double>(t.judge_calls));
      check_span.arg("judge_ns", static_cast<double>(t.judge_ns));
      check_span.arg("validate_ns_measurement_only",
                     static_cast<double>(t.validate_ns));
      check_span.arg("hb_hash_ns_measurement_only",
                     static_cast<double>(t.hb_ns));
      Layers& l = s.layers;
      l["explore.check_s"] = check_s;
      l["explore.schedules"] = static_cast<double>(rep.explored);
      l["explore.pruned"] = static_cast<double>(rep.pruned);
      l["explore.dpor_pruned"] = static_cast<double>(rep.dpor_pruned);
      l["explore.distinct_traces"] = static_cast<double>(rep.distinct_traces);
      l["explore.spec_setup_s"] = setup_s;
      l["explore.spec_setup_calls"] = static_cast<double>(t.setup_calls);
      l["explore.judge_s"] = judge_s;
      l["explore.judge_calls"] = static_cast<double>(t.judge_calls);
      // Hook times are worker-seconds, so the remainder is too.
      l["explore.rest_s"] = check_s * jobs - setup_s - judge_s - validate_s;
      l["explore.snapshots_taken"] =
          static_cast<double>(rep.telemetry.snapshots_taken);
      l["explore.snapshot_hits"] =
          static_cast<double>(rep.telemetry.snapshot_hits);
      l["explore.snapshot_misses"] =
          static_cast<double>(rep.telemetry.snapshot_misses);
      l["model.validate_s"] = validate_s;
      l["model.validated_events"] = static_cast<double>(t.events);
      l["model.saturated_runs"] = static_cast<double>(t.saturated);
      l["model.hb_hash_s"] = static_cast<double>(t.hb_ns) / 1e9;
      l["runtime.trace_events"] = static_cast<double>(t.events);
    }
  } catch (const std::exception& e) {
    s.ok = false;
    s.error = e.what();
  }
  s.seconds = seconds_since(t0) - replica_s;
  return s;
}

std::unique_ptr<Workload> make_litmus_check(const RunConfig& cfg,
                                            SpanLog* spans) {
  ScopedSpan span(spans, "setup", -1);
  explore::SessionOptions o;  // snapshot engine, DPOR default, jobs = 1
  o.explore.preemption_bound = cfg.quick ? 1 : 3;
  o.explore.horizon = cfg.quick ? 12 : 24;
  std::vector<std::unique_ptr<explore::CheckTarget>> targets;
  Layers layers;
  {
    ScopedSpan enum_span(spans, "model.litmus_enum", -1);
    const auto t0 = Clock::now();
    // Each LitmusTarget enumerates its test's model outcomes.
    for (const model::LitmusTest& test : explore::annotatable_tests()) {
      for (const rt::Target t : rt::sim_targets()) {
        targets.push_back(std::make_unique<explore::LitmusTarget>(test, t));
      }
    }
    layers["model.litmus_enum_s"] = seconds_since(t0);
  }
  return std::make_unique<CheckWorkload>(o, std::move(targets),
                                         std::move(layers));
}

}  // namespace

uint64_t input_mix(uint64_t seed, uint64_t draw) {
  if (seed == 0 && draw == 0) return 0;
  return util::SplitMix64(util::SplitMix64(seed).next() + draw).next();
}

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"fig8_mesh256", 5, true, "sim.makespan_cycles", make_fig8_mesh256},
      {"fig8_validated", 15, true, "sim.makespan_cycles", make_fig8_validated},
      {"litmus_check", 5, false, "explore.schedules", make_litmus_check},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : workload_defs()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"sim.run_s", "s"},
      {"sim.decisions", "count"},
      {"sim.ns_per_decision", "ns"},
      {"sim.host_ns_per_kcycle", "ns"},
      {"sim.core_cycles", "cycles"},
      {"sim.makespan_cycles", "cycles"},
      {"sim.mcycles_per_s", "Mcycles/s"},
      {"sim.busy_cycles", "cycles"},
      {"sim.stall_shared_read_cycles", "cycles"},
      {"sim.stall_sync_cycles", "cycles"},
      {"sim.stall_write_cycles", "cycles"},
      {"sim.stall_flush_cycles", "cycles"},
      {"sim.idle_cycles", "cycles"},
      {"sim.dcache_accesses", "count"},
      {"sim.dcache_hit_ratio", "ratio"},
      {"sim.writebacks", "count"},
      {"sim.lines_flushed", "count"},
      {"sim.atomics", "count"},
      {"sim.noc_packets", "count"},
      {"sim.noc_link_stall_cycles", "cycles"},
      {"sim.port_wait_cycles", "cycles"},
      {"sim.sdram_wait_p99", "cycles"},
      {"runtime.build_s", "s"},
      {"runtime.trace_events", "count"},
      {"apps.swcc_improvement_pct", "%"},
      {"apps.flush_pct_max", "%"},
      {"model.validate_s", "s"},
      {"model.validated_events", "count"},
      {"model.validate_ns_per_event", "ns"},
      {"model.saturated_runs", "count"},
      {"model.hb_hash_s", "s"},
      {"model.litmus_enum_s", "s"},
      {"explore.check_s", "s"},
      {"explore.schedules_per_s", "1/s"},
      {"explore.schedules", "count"},
      {"explore.pruned", "count"},
      {"explore.dpor_pruned", "count"},
      {"explore.distinct_traces", "count"},
      {"explore.spec_setup_s", "s"},
      {"explore.spec_setup_calls", "count"},
      {"explore.judge_s", "s"},
      {"explore.judge_calls", "count"},
      {"explore.rest_s", "s"},
      {"explore.snapshots_taken", "count"},
      {"explore.snapshot_hits", "count"},
      {"explore.snapshot_misses", "count"},
      {"explore.snapshot_hit_ratio", "ratio"},
      {"iter_s_p50", "s"},
      {"iter_s_p90", "s"},
      {"bench.trace_overhead_pct", "%"},
  };
  return metrics;
}

}  // namespace pmc::pmcbench
