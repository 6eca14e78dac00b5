// The §V-B time-decomposition identity: on every core, of every simulated
// back-end, cycles_total == busy + stall_total() + idle — under the default
// schedule and under schedule overrides, whose frontier warps advance a
// core's clock without passing through any charge (folded into idle at run
// end, DESIGN.md §6). Regression guard for the trace/telemetry
// instrumentation: observability must never unbalance the ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "model/litmus_library.h"
#include "runtime/program.h"
#include "sim/machine.h"

namespace pmc::explore {
namespace {

constexpr uint64_t kHorizon = 24;

/// Runs `test` on `backend` under `ds`, asserts the identity on every core,
/// and returns the candidate count at each decision step (for building
/// overrides that are guaranteed to bind).
std::vector<int> run_and_check(const model::LitmusTest& test,
                               rt::Target backend, const DecisionString& ds) {
  const LitmusTarget target(test, backend);
  StatefulSpec spec = target.make_spec();
  ReplayPolicy policy(ds, kHorizon);
  rt::ProgramOptions opts = spec.opts;
  opts.schedule_policy = &policy;
  rt::Program prog(opts);
  spec.setup(prog);
  prog.run(spec.body);

  const sim::Machine* m = prog.machine();
  EXPECT_NE(m, nullptr);
  for (int c = 0; c < m->num_cores(); ++c) {
    const sim::CoreStats& s = m->stats(c);
    EXPECT_EQ(s.cycles_total, s.busy + s.stall_total() + s.idle)
        << test.name << "@" << rt::to_string(backend) << " core " << c
        << " schedule \"" << to_string(ds) << "\": busy=" << s.busy
        << " stall=" << s.stall_total() << " idle=" << s.idle;
  }
  std::vector<int> cands;
  for (uint64_t p = 0; p < policy.decision_points() && p < kHorizon; ++p) {
    cands.push_back(policy.candidates_at(p));
  }
  return cands;
}

class StatsIdentity : public ::testing::TestWithParam<rt::Target> {};

TEST_P(StatsIdentity, HoldsOnDefaultSchedules) {
  for (const model::LitmusTest& test : annotatable_tests()) {
    run_and_check(test, GetParam(), {});
  }
}

TEST_P(StatsIdentity, HoldsUnderScheduleOverrides) {
  // Non-default dispatches warp the chosen core's clock forward to the
  // frontier; every warped cycle must land in idle or the identity breaks.
  // Overrides are built from a probe run so each one is guaranteed to bind
  // (choice 1 exists only at steps with >= 2 runnable cores).
  for (const model::LitmusTest& test : annotatable_tests()) {
    const std::vector<int> cands = run_and_check(test, GetParam(), {});
    DecisionString ds;
    for (uint64_t p = 0; p < cands.size() && ds.size() < 2; ++p) {
      if (cands[p] >= 2) ds.push_back({p, 1});
    }
    ASSERT_FALSE(ds.empty())
        << test.name << ": no contended decision step to override";
    run_and_check(test, GetParam(), ds);
  }
}

INSTANTIATE_TEST_SUITE_P(SimTargets, StatsIdentity,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

}  // namespace
}  // namespace pmc::explore
