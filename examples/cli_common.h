// Shared flag parsing for the two explorer CLIs, explore_litmus and
// fuzz_farm. Each helper throws util::CheckFailure on a bad value; both
// CLIs print it and exit 2.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "explore/explorer.h"
#include "runtime/backends/registry.h"
#include "util/check.h"

namespace pmc::cli {

/// --backend=NAME|all (nullptr means all) as a list of simulated targets.
inline std::vector<rt::Target> parse_backends(const char* arg) {
  if (arg == nullptr || std::strcmp(arg, "all") == 0) {
    return rt::sim_targets();
  }
  const auto target = rt::target_from_string(arg);
  if (!target || !rt::is_sim(*target)) {
    throw util::CheckFailure("unknown back-end '" + std::string(arg) +
                             "' (want " + rt::backend_names() + "|all)");
  }
  return {*target};
}

/// --dpor[=off|sleepset]: `def` when absent; the bare flag means sleepset
/// (DESIGN.md §8).
inline explore::DporMode parse_dpor(int argc, char** argv,
                                    explore::DporMode def) {
  if (const char* d = bench::flag_str(argc, argv, "dpor", nullptr)) {
    const auto mode = explore::dpor_mode_from_string(d);
    if (!mode) {
      throw util::CheckFailure("unknown --dpor mode '" + std::string(d) +
                               "' (want off|sleepset)");
    }
    return *mode;
  }
  return bench::flag_set(argc, argv, "dpor") ? explore::DporMode::kSleepSet
                                             : def;
}

/// Machine-requirement gate (DESIGN.md §13): throws the first selected
/// back-end's named error when `machine` cannot host it, so a CLI rejects
/// the selection before any exploration starts.
inline void require_hostable(const std::vector<rt::Target>& backends,
                             const sim::MachineConfig& machine) {
  for (const rt::Target t : backends) {
    const std::string err =
        rt::check_machine(rt::descriptor(rt::backend_kind(t)), machine);
    if (!err.empty()) throw util::CheckFailure(err);
  }
}

}  // namespace pmc::cli
