// bench_trace_overhead: the tracing-overhead gate (DESIGN.md §11).
//
// A machine with no recorder attached must pay one predictable branch per
// instrumentation point, and an attached-but-disarmed recorder two. Price it
// end-to-end: repeated stateless runs of fig5_mp_annotated@swcc's default
// schedule at horizon 16, detached vs disarmed — the same run_spec_once call
// on both sides, so nothing but the recorder differs. The target is <2%; this
// host may be loaded, so the bench prints the number, warns past 2%, and only
// fails (exit 1) on a gross (>10%) regression. Wall-clock, so ctest does not
// run it; CI does.
//
//   bench_trace_overhead
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "explore/check.h"
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
  // No flags: every number is fixed, and no JSON report is written.
  if (!bench::known_flags_only(argc, argv, {})) return 2;
  const uint64_t horizon = 16;
  const int reps = 40;  // runs per side and pass
  const explore::LitmusTarget target(model::litmus::fig5_mp_annotated(),
                                     rt::Target::kSWCC);
  obs::TraceRecorder rec;
  rec.disarm();
  const auto run_default = [&](obs::TraceRecorder* recorder) {
    explore::StatefulSpec spec = target.make_spec();
    spec.opts.trace = recorder;
    explore::ReplayPolicy policy({}, horizon);
    return explore::run_spec_once(spec, policy).ok;
  };
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
  return 0;
}
