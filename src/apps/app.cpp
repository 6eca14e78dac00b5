#include "apps/app.h"

#include <algorithm>

namespace pmc::apps {

AppRunResult run_app(App& app, ProgramOptions opts) {
  app.tune(opts);
  Program prog(opts);
  app.build(prog);
  prog.run([&](Env& env) { app.body(env); });
  AppRunResult r;
  r.checksum = app.checksum(prog);
  if (prog.machine() != nullptr) {
    r.stats = prog.stats_sum();
    for (int c = 0; c < prog.cores(); ++c) {
      r.makespan = std::max(r.makespan, prog.machine()->stats(c).cycles_total);
    }
    if (prog.validator() != nullptr) {
      r.validated_ok = prog.validator()->ok();
      r.validation_error = prog.validator()->first_violation();
    }
    prog.machine()->export_metrics(r.metrics);
  }
  return r;
}

}  // namespace pmc::apps
