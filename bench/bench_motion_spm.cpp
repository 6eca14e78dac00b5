// Case study §VI-C / Fig. 10: motion estimation with scratch-pad memories.
//
// The paper: "experiments show a significant performance increase when this
// application is using SPMs, compared to the software cache coherency
// setup". The harness quantifies that on the same machine: SPM vs SWCC vs
// no-CC makespans over a sweep of block/search sizes (reuse grows with the
// search area, so the SPM advantage should widen).
//
// Flags: --cores=N (default 8).
#include <cstdio>

#include "apps/motion_est.h"
#include "bench/bench_common.h"
#include "util/table.h"

namespace {

using namespace pmc;
using namespace pmc::bench;
using namespace pmc::apps;

uint64_t run_motion(rt::Target target, int cores, const MotionConfig& cfg,
                    uint64_t* checksum) {
  MotionEst app(cfg);
  ProgramOptions o;
  o.target = target;
  o.cores = cores;
  o.machine = sim::MachineConfig::ml605(cores);
  o.machine.lm_bytes = 128 * 1024;
  o.machine.max_cycles = UINT64_C(40'000'000'000);
  o.validate = false;
  o.lock_capacity = 512;
  const auto r = run_app(app, o);
  *checksum = r.checksum;
  return r.makespan;
}

}  // namespace

int main(int argc, char** argv) {
  if (!known_flags_only(argc, argv, {"cores=", "json", "json="})) return 2;
  const int cores = static_cast<int>(flag_int(argc, argv, "cores", 8));
  std::printf("== Fig. 10 case study: motion estimation on SPM (%d cores) ==\n\n",
              cores);

  JsonReport json("motion_spm");
  json.add("cores", cores);

  util::Table t;
  t.add_row({"block", "search", "SPM cycles", "SWCC cycles", "no-CC cycles",
             "SPM vs SWCC", "SWCC vs no-CC"});
  for (int variant = 0; variant < 3; ++variant) {
    MotionConfig cfg;
    cfg.blocks_x = 4;
    cfg.blocks_y = 4;
    cfg.block = variant == 0 ? 8 : (variant == 1 ? 8 : 12);
    cfg.search = variant == 0 ? 4 : (variant == 1 ? 8 : 8);
    uint64_t cks_spm = 0, cks_swcc = 0, cks_nocc = 0;
    const uint64_t spm = run_motion(rt::Target::kSPM, cores, cfg, &cks_spm);
    const uint64_t swcc = run_motion(rt::Target::kSWCC, cores, cfg, &cks_swcc);
    const uint64_t nocc = run_motion(rt::Target::kNoCC, cores, cfg, &cks_nocc);
    if (cks_spm != cks_swcc || cks_spm != cks_nocc) {
      std::printf("!! checksum mismatch across back-ends\n");
      return 1;
    }
    char a[32], b[32];
    std::snprintf(a, sizeof a, "%.2fx",
                  static_cast<double>(swcc) / static_cast<double>(spm));
    std::snprintf(b, sizeof b, "%.2fx",
                  static_cast<double>(nocc) / static_cast<double>(swcc));
    t.add_row({fmt_u64(static_cast<uint64_t>(cfg.block)),
               "±" + fmt_u64(static_cast<uint64_t>(cfg.search)),
               fmt_u64(spm), fmt_u64(swcc), fmt_u64(nocc), a, b});
    const std::string key = "b" + fmt_u64(static_cast<uint64_t>(cfg.block)) +
                            "s" + fmt_u64(static_cast<uint64_t>(cfg.search));
    json.add(key + "_spm_cycles", spm);
    json.add(key + "_swcc_cycles", swcc);
    json.add(key + "_nocc_cycles", nocc);
    json.add(key + "_spm_speedup_vs_swcc",
             static_cast<double>(swcc) / static_cast<double>(spm));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("expected shape: SPM < SWCC < no-CC, with the SPM advantage "
              "growing with the search area\n(more reads per staged byte).\n");
  if (!json.maybe_write(argc, argv)) return 1;
  return 0;
}
