// Common application harness: build objects, run a per-core body, extract a
// deterministic checksum. All kernels use integer/fixed-point arithmetic so
// the checksum must be bit-identical across every back-end — the paper's
// portability claim as an executable property.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "runtime/program.h"

namespace pmc::apps {

using rt::Env;
using rt::ObjId;
using rt::Placement;
using rt::Program;
using rt::ProgramOptions;
using rt::Target;

class App {
 public:
  virtual ~App() = default;
  virtual const char* name() const = 0;
  /// Adjusts machine knobs (workload profile, local memory size, ...).
  virtual void tune(ProgramOptions& opts) const { (void)opts; }
  /// Creates and initializes the shared objects (before run).
  virtual void build(Program& prog) = 0;
  /// Per-core body.
  virtual void body(Env& env) = 0;
  /// Deterministic digest of the results (after run).
  virtual uint64_t checksum(Program& prog) = 0;
};

struct AppRunResult {
  uint64_t checksum = 0;
  sim::CoreStats stats;     // aggregate over cores (zeros for host target)
  uint64_t makespan = 0;    // max per-core cycle count (0 for host)
  bool validated_ok = true; // Definition 12 check (true when not validated)
  std::string validation_error;  // the first violation when !validated_ok
  /// Machine-level counters and histograms (Machine::export_metrics): NoC
  /// packet/stall totals and port-queue waits. Empty for the host target.
  obs::MetricsRegistry metrics;
};

/// Builds a Program with `opts`, runs the app, digests the results.
AppRunResult run_app(App& app, ProgramOptions opts);

}  // namespace pmc::apps
