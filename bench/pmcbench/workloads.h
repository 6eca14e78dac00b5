// The three pmc_bench workloads (bench/pmcbench/README.md).
//
// A workload is a fixed list of cells; a round runs every cell once, in
// order, and one iteration (one sample) is one cell. Each iteration builds
// everything it simulates afresh, so simulated caches start empty and users
// pay exactly what one run costs them. Only calls into public library APIs
// are timed (rt::Program, apps::App, model::TraceValidator,
// explore::hb_trace_hash, explore::CheckSession, StatefulSpec hooks,
// sim::SchedulePolicy); nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace pmc::pmcbench {

struct RunConfig {
  uint64_t seed = 0;   // picks the kernel inputs of every draw (input_mix)
  bool quick = false;  // reduced sizes: the smoke test
};

/// The value XORed into every kernel's built-in seed in input draw `draw`
/// of a run with `seed`. Each round of a seeded workload is a fresh draw,
/// so a run measures a sample of inputs rather than one; draw 0 of seed 0
/// keeps the built-in seeds, i.e. bench_fig8_swcc's inputs.
uint64_t input_mix(uint64_t seed, uint64_t draw);

/// Additive per-layer quantities (seconds and counts) keyed by metric name.
/// Summing over cells and taking medians over rounds is valid for every
/// entry; ratios are derived only after aggregation.
using Layers = std::map<std::string, double>;

/// The value of `key` in `l`, 0 when absent.
inline double get(const Layers& l, const std::string& key) {
  const auto it = l.find(key);
  return it == l.end() ? 0.0 : it->second;
}

/// One iteration.
struct Sample {
  double seconds = 0;  // wall time, minus measurement-only calls
  bool ok = true;
  std::string error;
  uint64_t draw = 0;    // the input draw it ran (always 0 when unseeded)
  uint64_t digest = 0;  // output digest: equal across runs of one draw, and
                        // for fig8 across the back-ends of one kernel
  uint64_t count = 0;   // the cell's deterministic count (see count_key)
  Layers layers;        // traced iterations only
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t cells() const = 0;
  virtual std::string cell_name(size_t cell) const = 0;
  /// Runs `cell` once on input draw `draw`. `spans` is null in untraced
  /// iterations; a traced iteration records spans and fills Sample::layers.
  virtual Sample run(size_t cell, uint64_t draw, SpanLog* spans,
                     int64_t iteration) = 0;
  /// Output checks across the cells of one round, or of the first cells of
  /// a round that the time limit cut short; marks failing samples.
  virtual void check_round(std::vector<Sample>& round) const { (void)round; }
  /// Adds metrics that need the per-cell breakdown (index = cell; each
  /// entry holds the cell's per-layer medians over the traced rounds).
  virtual void derive(const std::vector<Layers>& per_cell, Layers& out) const {
    (void)per_cell;
    (void)out;
  }
  /// Per-layer quantities of the set-up that built this workload.
  const Layers& setup_layers() const { return setup_layers_; }

 protected:
  Layers setup_layers_;
};

/// One workload; BENCHMARK.json and README.md say why each exists.
struct WorkloadDef {
  const char* name;
  int rounds;             // rounds of a fixed-length (--all) run
  bool seeded;            // whether --seed and the draw change the inputs
  const char* count_key;  // what Sample::count holds, summed over a round
  /// The timed set-up: parses configs and builds every cell's inputs.
  std::unique_ptr<Workload> (*make)(const RunConfig& cfg, SpanLog* spans);
};

const std::vector<WorkloadDef>& workload_defs();
/// nullptr for an unknown name.
const WorkloadDef* find_workload(const std::string& name);

struct LayerMetric {
  const char* name;
  const char* unit;
};
/// Every per-layer metric a traced run reports, in output order.
const std::vector<LayerMetric>& layer_metrics();

}  // namespace pmc::pmcbench
