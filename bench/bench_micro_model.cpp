// Microbenchmarks of the memory-model engine (google-benchmark).
//
// Measures Execution's edge insertion, reachability queries, and litmus
// exploration cost.
#include <benchmark/benchmark.h>

#include "model/execution.h"
#include "model/litmus_library.h"
#include "util/rng.h"

namespace {

using namespace pmc;
using namespace pmc::model;

/// Issues a fixed random well-formed program into `e`.
void drive(Execution& e, int procs, int locs, int steps, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> holder(static_cast<size_t>(locs), -1);
  for (int i = 0; i < steps; ++i) {
    const ProcId p = static_cast<ProcId>(rng.next_below(procs));
    const LocId v = static_cast<LocId>(rng.next_below(locs));
    switch (rng.next_below(6)) {
      case 0:
        e.read(p, v, 0);
        break;
      case 1:
      case 2:
        e.write(p, v, static_cast<uint64_t>(i));
        break;
      case 3:
        if (holder[v] == -1) {
          e.acquire(p, v);
          holder[v] = p;
        }
        break;
      case 4:
        if (holder[v] == p) {
          e.release(p, v);
          holder[v] = -1;
        }
        break;
      case 5:
        e.fence(p);
        break;
    }
  }
}

void BM_ExecutionIssueReduced(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Execution e(4, 8);
    drive(e, 4, 8, steps, 42);
    benchmark::DoNotOptimize(e.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_ExecutionIssueReduced)->Arg(64)->Arg(256)->Arg(1024);

void BM_HbGlobalQuery(benchmark::State& state) {
  Execution e(4, 8);
  drive(e, 4, 8, 512, 7);
  const OpId n = static_cast<OpId>(e.num_ops());
  uint64_t i = 0;
  for (auto _ : state) {
    const OpId a = static_cast<OpId>(i % (n / 2));
    const OpId b = static_cast<OpId>(n / 2 + i % (n / 2));
    benchmark::DoNotOptimize(e.hb_global(a, b));
    ++i;
  }
}
BENCHMARK(BM_HbGlobalQuery);

void BM_LegalSourcesQuery(benchmark::State& state) {
  Execution e(4, 8);
  drive(e, 4, 8, 512, 7);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.legal_sources_now(static_cast<ProcId>(i % 4),
                            static_cast<LocId>(i % 8)));
    ++i;
  }
}
BENCHMARK(BM_LegalSourcesQuery);

void BM_LitmusExploreFig5(benchmark::State& state) {
  const auto test = litmus::fig5_mp_annotated();
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore(test));
  }
}
BENCHMARK(BM_LitmusExploreFig5);

void BM_LitmusExploreWeakIssue(benchmark::State& state) {
  const auto test = litmus::fig5_mp_no_reader_fence();
  ExploreOptions opts;
  opts.mode = IssueMode::kWeakIssue;
  opts.weak_window = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore(test, opts));
  }
}
BENCHMARK(BM_LitmusExploreWeakIssue);

// wrc_locked is nearly all of a LitmusTarget's set-up: its program-order
// enumeration is the oracle every back-end of the annotatable suite loads.
void BM_LitmusExploreWrcLocked(benchmark::State& state) {
  const auto test = litmus::wrc_locked();
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore(test));
  }
}
BENCHMARK(BM_LitmusExploreWrcLocked)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
