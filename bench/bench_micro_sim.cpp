// Microbenchmarks of the SoC substrate (google-benchmark): scheduler handoff
// cost (the price of deterministic interleaving), memory module operations,
// cache accesses, NoC delivery.
#include <benchmark/benchmark.h>

#include <cstring>

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

}  // namespace

BENCHMARK_MAIN();
