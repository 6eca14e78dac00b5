// Microbenchmarks of the SoC substrate (google-benchmark): scheduler handoff
// cost (the price of deterministic interleaving), the application data
// path through SimEnv with deferred handoffs, memory module operations,
// cache accesses, NoC delivery, machine snapshot capture and restore, and
// one checked litmus target explored end to end.
#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>

#include "explore/check.h"
#include "model/litmus_library.h"
#include "runtime/program.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/noc.h"
#include "sim/scheduler.h"

namespace {

using namespace pmc::sim;

void BM_SchedulerHandoff(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const int steps = 2000;
  for (auto _ : state) {
    Scheduler s(cores);
    s.run([&](int core) {
      // Equal steps force a handoff on every advance.
      for (int i = 0; i < steps; ++i) s.advance(core, 1);
    });
  }
  state.SetItemsProcessed(state.iterations() * steps * cores);
}
BENCHMARK(BM_SchedulerHandoff)->Arg(2)->Arg(8)->Arg(32)->Arg(256);

void BM_SchedulerStaggered(benchmark::State& state) {
  // Distinct per-core deltas, the shape of a Fig. 8 run on a large mesh:
  // clocks drift apart, so most advances hand off to a core deep in the
  // ready queue rather than to the next id.
  const int cores = static_cast<int>(state.range(0));
  const int steps = 2000;
  for (auto _ : state) {
    Scheduler s(cores);
    s.run([&](int core) {
      const uint64_t delta = static_cast<uint64_t>(core + 1);
      for (int i = 0; i < steps; ++i) s.advance(core, delta);
    });
  }
  state.SetItemsProcessed(state.iterations() * steps * cores);
}
BENCHMARK(BM_SchedulerStaggered)->Arg(256);

void BM_SchedulerNoContention(benchmark::State& state) {
  // One active core: advances never yield.
  const int steps = 20000;
  for (auto _ : state) {
    Scheduler s(1);
    s.run([&](int core) {
      for (int i = 0; i < steps; ++i) s.advance(core, 3);
    });
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_SchedulerNoContention);

void BM_EnvReadComputeLoop(benchmark::State& state) {
  // The application data path (DESIGN.md §2): uncached no-CC reads of an
  // immutable SDRAM object, each followed by a compute, through SimEnv in
  // an unobserved run. The compute and each read's response half defer
  // their handoffs; a core hands off only before a read reaches SDRAM.
  // Reports host time per Env op (read or compute) and handoffs per op.
  const int cores = static_cast<int>(state.range(0));
  const int reads = 500;
  const int64_t ops = int64_t{2} * reads * cores;
  uint64_t handoffs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pmc::rt::ProgramOptions o;
    o.target = pmc::rt::Target::kNoCC;
    o.cores = cores;
    o.machine = MachineConfig::ml605(cores);
    o.machine.lm_bytes = 4 * 1024;
    o.validate = false;
    o.lock_capacity = 4;
    pmc::rt::Program prog(o);
    const pmc::rt::ObjId table =
        prog.create_const_object(64, pmc::rt::Placement::kSdram, "table");
    state.ResumeTiming();
    prog.run([&](pmc::rt::Env& env) {
      const uint32_t off = static_cast<uint32_t>(env.id() % 16) * 4;
      env.entry_ro(table);
      uint32_t sum = 0;
      for (int i = 0; i < reads; ++i) {
        sum += env.ld<uint32_t>(table, off);
        env.compute(8 + static_cast<uint64_t>(env.id() % 5));
      }
      env.exit_ro(table);
      benchmark::DoNotOptimize(sum);
    });
    handoffs = prog.machine()->handoffs();
  }
  state.SetItemsProcessed(state.iterations() * ops);
  // Inverted rate: seconds per op, printed with an SI prefix (ns).
  state.counters["time_per_op"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsIterationInvariantRate |
                                    benchmark::Counter::kInvert);
  state.counters["handoffs_per_op"] =
      static_cast<double>(handoffs) / static_cast<double>(ops);
}
BENCHMARK(BM_EnvReadComputeLoop)->Arg(2)->Arg(32)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_MemModulePostAndRead(benchmark::State& state) {
  MemModule m("m", 0, 4096);
  uint32_t v = 7;
  uint64_t t = 1;
  for (auto _ : state) {
    m.post_write(t + 5, static_cast<Addr>((t * 16) % 4096 & ~3u), &v, 4);
    uint32_t out;
    m.read(t + 6, 0, &out, 4);
    benchmark::DoNotOptimize(out);
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemModulePostAndRead);

void BM_CacheHitPath(benchmark::State& state) {
  Cache c(CacheConfig{});
  Cache::Victim victim;
  std::memset(c.install(0x1000, &victim), 0, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lookup(0x1000));
  }
}
BENCHMARK(BM_CacheHitPath);

void BM_CacheMissInstall(benchmark::State& state) {
  Cache c(CacheConfig{});
  Addr a = 0;
  for (auto _ : state) {
    Cache::Victim victim;
    benchmark::DoNotOptimize(c.install(a, &victim));
    a += 32;
  }
}
BENCHMARK(BM_CacheMissInstall);

void BM_NocDeliver(benchmark::State& state) {
  TimingConfig t;
  Noc n(32, 8, t);
  MemModule dst("d", 0, 4096);
  uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(n.deliver(now, 0, 17, dst, 32));
    now += 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocDeliver);

void BM_MachineUncachedRead(benchmark::State& state) {
  // End-to-end cost of one simulated uncached access on a 1-core machine.
  MachineConfig cfg = MachineConfig::ml605(1);
  cfg.sdram_bytes = 64 * 1024;
  cfg.max_cycles = Scheduler::kMaxCycles;
  cfg.cache_shared = false;
  Machine m(cfg);
  const int64_t iters = static_cast<int64_t>(state.max_iterations);
  bool done = false;
  for (auto _ : state) {
    if (!done) {
      // Run the whole batch inside one Machine::run to amortize thread setup.
      state.PauseTiming();
      state.ResumeTiming();
      m.run([&](Core& c) {
        for (int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(
              c.load_u32(kSdramBase, MemClass::kSharedData));
        }
      });
      done = true;
    }
  }
  state.SetItemsProcessed(iters);
}
BENCHMARK(BM_MachineUncachedRead)->Iterations(100000);

// A 4-core ML605 machine with the litmus targets' memory shape (32 KiB
// local memories, 256 KiB SDRAM), parked mid-run like the snapshot engine
// parks one: every core stores and loads cached shared data, writes its
// local memory and posts into a neighbour's. A pass-through policy is
// installed, as in an explored run. The hook snapshots decision step 8
// and hands the machine, parked at step 16, to `at_park`.
class ParkedMachine final : public CheckpointHook, SchedulePolicy {
 public:
  using AtPark = std::function<void(Machine&, const Machine::Snapshot& step8)>;

  explicit ParkedMachine(AtPark at_park)
      : m_(config()), at_park_(std::move(at_park)) {}

  /// False when the run never reached decision step 16.
  bool run() {
    m_.set_schedule_policy(this);
    m_.set_checkpoint_hook(this);
    m_.run([](Core& c) {
      const int n = c.num_cores();
      const Addr mine = kSdramBase + static_cast<Addr>(c.id()) * 256;
      const Addr next = kSdramBase + static_cast<Addr>((c.id() + 1) % n) * 256;
      const Addr lm = c.machine().lm_base(c.id());
      const Addr peer_lm = c.machine().lm_base((c.id() + 1) % n);
      for (uint32_t i = 0; i < 8; ++i) {
        c.store_u32(mine + 4 * i, i, MemClass::kSharedData);
        benchmark::DoNotOptimize(c.load_u32(next + 4 * i, MemClass::kSharedData));
        c.store_u32(lm + 64 * i, i, MemClass::kLocal);
        c.remote_write((c.id() + 1) % n, peer_lm + 256 + 4 * i, &i, 4);
        c.compute(10);
      }
    });
    return parked_;
  }

  int pick(const YieldPoint&, const std::vector<ScheduleCandidate>&) override {
    return 0;
  }
  bool wants_checkpoint(uint64_t step, int) override {
    return step == 8 || step == 16;
  }
  void on_checkpoint(uint64_t step) override {
    if (step == 8) {
      m_.snapshot(step8_);
      return;
    }
    at_park_(m_, step8_);
    parked_ = true;
  }

 private:
  static MachineConfig config() {
    MachineConfig cfg = MachineConfig::ml605(4);
    cfg.lm_bytes = 32 * 1024;
    cfg.sdram_bytes = 256 * 1024;
    return cfg;
  }

  Machine m_;
  AtPark at_park_;
  Machine::Snapshot step8_;
  bool parked_ = false;
};

void BM_SnapshotCapture(benchmark::State& state) {
  // Captures into one reused snapshot, as the pool recycles an evicted one.
  ParkedMachine parked([&state](Machine& m, const Machine::Snapshot&) {
    Machine::Snapshot s;
    for (auto _ : state) {
      m.snapshot(s);
      benchmark::DoNotOptimize(s.sched.step);
      benchmark::ClobberMemory();
    }
  });
  if (!parked.run()) state.SkipWithError("the run never reached step 16");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotCapture);

void BM_SnapshotRestore(benchmark::State& state) {
  // Alternates between the states at steps 8 and 16, so every restore
  // undoes real writes; the last one leaves the machine where it parked.
  ParkedMachine parked(
      [&state](Machine& m, const Machine::Snapshot& step8) {
        Machine::Snapshot step16;
        m.snapshot(step16);
        for (auto _ : state) {
          m.restore(step8);
          m.restore(step16);
          benchmark::ClobberMemory();
        }
      });
  if (!parked.run()) state.SkipWithError("the run never reached step 16");
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_SnapshotRestore);

void BM_ExploreLitmusTarget(benchmark::State& state) {
  // One CheckSession::explore of wrc_locked on DSM at two preemptions and
  // horizon 16, on the snapshot engine: every schedule forks from a
  // snapshot, runs past its last branch free of the policy, and is judged.
  // Includes the target's model-outcome enumeration and the first build.
  namespace ex = pmc::explore;
  ex::ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  const ex::CheckSession session(cfg);
  uint64_t schedules = 0, decisions = 0;
  for (auto _ : state) {
    const ex::LitmusTarget target(pmc::model::litmus::wrc_locked(),
                                  pmc::rt::Target::kDSM);
    const ex::ExploreReport rep = session.explore(target);
    schedules = rep.explored;
    decisions = rep.max_decision_points;
    benchmark::DoNotOptimize(rep.distinct_traces);
  }
  state.counters["schedules"] = static_cast<double>(schedules);
  state.counters["max_decisions"] = static_cast<double>(decisions);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(schedules));
}
BENCHMARK(BM_ExploreLitmusTarget)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
