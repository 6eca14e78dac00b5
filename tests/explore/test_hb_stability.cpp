// hb_trace_hash stability (ISSUE satellite): the farm's entire coverage
// signal is the set of hb-class hashes an exploration reports, so that set
// must be a pure function of (target, bounds) — identical between stateless
// replay and the snapshot engine and across job counts, on every back-end. A
// drift here would silently corrupt every persisted corpus.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "runtime/program.h"
#include "../support/replay_reference.h"

namespace pmc::explore {
namespace {

SessionOptions base_options() {
  SessionOptions s;
  s.explore.preemption_bound = 1;
  s.explore.horizon = 10;
  s.explore.dpor = DporMode::kSleepSet;
  s.explore.collect_trace_hashes = true;
  s.jobs = 1;
  return s;
}

class HbStability : public ::testing::TestWithParam<rt::Target> {};

TEST_P(HbStability, ClassSetIsEngineAndJobInvariant) {
  const rt::Target target = GetParam();
  for (const model::LitmusTest& test : annotatable_tests()) {
    const LitmusTarget lt(test, target);

    const CheckReport ref = CheckSession(base_options())
                                .check(test_support::ReplayReference(lt));
    ASSERT_FALSE(ref.truncated) << lt.name();
    EXPECT_FALSE(ref.trace_hashes.empty()) << lt.name();
    EXPECT_EQ(static_cast<uint64_t>(ref.trace_hashes.size()),
              ref.distinct_traces)
        << lt.name();
    EXPECT_TRUE(std::is_sorted(ref.trace_hashes.begin(),
                               ref.trace_hashes.end()))
        << lt.name();

    for (const int jobs : {1, 2, 8}) {
      SessionOptions opts = base_options();
      opts.jobs = jobs;
      const CheckReport rep = CheckSession(opts).check(lt);
      EXPECT_EQ(rep.trace_hashes, ref.trace_hashes)
          << lt.name() << " on " << rt::to_string(target) << ": jobs=" << jobs
          << " drifted from replay jobs=1";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, HbStability, ::testing::ValuesIn(rt::sim_targets()),
    [](const ::testing::TestParamInfo<rt::Target>& info) {
      return std::string(rt::to_string(info.param));
    });

}  // namespace
}  // namespace pmc::explore
