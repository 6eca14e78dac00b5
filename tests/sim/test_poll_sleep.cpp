// Sleeping polls (DESIGN.md §2): a core that fails a poll of its own local
// memory sleeps to the first poll that can see a write. Every test runs the
// same program twice — unobserved, where polls sleep, and under a
// pass-through policy, where every poll steps — and requires identical
// cycles, counters and memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/motion_est.h"
#include "apps/radiosity_like.h"
#include "apps/raytrace_like.h"
#include "apps/volrend_like.h"
#include "sim/machine.h"
#include "sim/poll.h"
#include "sync/barrier.h"
#include "util/check.h"

namespace pmc::sim {
namespace {

/// Always the default min-time pick: the schedule is unchanged, but an
/// installed policy observes every decision point, so nothing sleeps.
class PassThrough final : public SchedulePolicy {
 public:
  int pick(const YieldPoint&, const std::vector<ScheduleCandidate>&) override {
    return 0;
  }
};

bool same_stats(const CoreStats& a, const CoreStats& b) {
  return std::memcmp(&a, &b, sizeof(CoreStats)) == 0;
}

// ---------------------------------------------------------------------------
// The closed form against the step loop
// ---------------------------------------------------------------------------

TEST(PollSchedule, BackoffDoublesUpToItsCapAndNeverPast) {
  // 3 is no power of two: `b < max ? 2b : max` overshot to 96 here.
  std::vector<uint64_t> seen;
  for (uint64_t b = 3; seen.size() < 8; b = PollSchedule::next_backoff(b, 64)) {
    seen.push_back(b);
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 6, 12, 24, 48, 64, 64, 64}));
  // A start above the cap falls to it.
  EXPECT_EQ(PollSchedule::next_backoff(100, 64), 64u);
}

TEST(PollSchedule, SkipsMatchTheStepLoop) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    PollSchedule base;
    base.read = rng() % 1000;
    base.backoff = rng() % 10;
    base.backoff_max = rng() % 5000;
    base.load = rng() % 3;
    if (!base.advances()) continue;
    const uint64_t t = base.read + rng() % 200'000;
    PollSchedule stepped = base;
    while (stepped.read < t) stepped.step();
    PollSchedule skipped = base;
    skipped.skip_to(t);
    EXPECT_EQ(skipped.read, stepped.read) << "trial " << trial;
    EXPECT_EQ(skipped.polls, stepped.polls) << "trial " << trial;
    EXPECT_EQ(skipped.idled, stepped.idled) << "trial " << trial;
    EXPECT_EQ(skipped.backoff, stepped.backoff) << "trial " << trial;
    EXPECT_EQ(base.first_read_at(t), stepped.read);

    const uint64_t limit = base.read + 1 + rng() % 200'000;
    PollSchedule below = base;
    below.skip_below(limit);
    PollSchedule walk = base;
    while (walk.next_read() < limit) walk.step();
    EXPECT_EQ(below.read, walk.read) << "trial " << trial;
    EXPECT_EQ(below.polls, walk.polls) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Machine-level edge cases
// ---------------------------------------------------------------------------

MachineConfig tiny(int cores) {
  MachineConfig c = MachineConfig::ml605(cores);
  c.lm_bytes = 4096;
  c.sdram_bytes = 64 * 1024;
  c.max_cycles = 50'000'000;
  return c;
}

struct Outcome {
  std::vector<CoreStats> stats;
  uint64_t state_hash = 0;
  uint64_t polls_slept = 0;
  std::string error;  // what() of a CheckFailure, empty when none
};

using Body = std::function<void(Core&)>;
/// Builds a body for one machine (and any per-machine state it needs).
using MakeBody = std::function<Body(Machine&)>;

Outcome run(const MachineConfig& cfg, const MakeBody& make, bool policed) {
  Machine m(cfg);
  PassThrough policy;
  if (policed) m.set_schedule_policy(&policy);
  const Body body = make(m);
  Outcome o;
  try {
    m.run(body);
  } catch (const util::CheckFailure& e) {
    o.error = e.what();
  }
  for (int c = 0; c < cfg.num_cores; ++c) o.stats.push_back(m.stats(c));
  o.state_hash = m.state_hash();
  o.polls_slept = m.polls_slept();
  return o;
}

/// Runs the program both ways and checks that they agree and that only
/// the unobserved run slept; returns the unobserved outcome.
Outcome run_both(const MachineConfig& cfg, const MakeBody& make) {
  const Outcome slept = run(cfg, make, /*policed=*/false);
  const Outcome stepped = run(cfg, make, /*policed=*/true);
  EXPECT_EQ(stepped.polls_slept, 0u);
  EXPECT_EQ(slept.error, stepped.error);
  EXPECT_EQ(slept.state_hash, stepped.state_hash);
  EXPECT_EQ(slept.stats.size(), stepped.stats.size());
  for (size_t c = 0; c < slept.stats.size(); ++c) {
    EXPECT_TRUE(same_stats(slept.stats[c], stepped.stats[c])) << "core " << c;
    EXPECT_EQ(slept.stats[c].cycles_total, stepped.stats[c].cycles_total)
        << "core " << c;
  }
  return slept;
}

Outcome run_both(const MachineConfig& cfg, const Body& body) {
  return run_both(cfg, [&](Machine&) { return body; });
}

/// Send-start to arrival of an uncontended one-word remote write between
/// adjacent tiles on the flat NoC: the send, the head's flight, the word's
/// serialization and one cycle through the destination port.
uint64_t neighbour_flight(const MachineConfig& cfg) {
  const TimingConfig& t = cfg.timing;
  return 1 + t.noc_send_cost + t.noc_base + t.noc_per_hop + t.noc_per_word +
         1;
}

TEST(PollSleep, RejectedValueWakesAndSleepsAgain) {
  const Outcome o = run_both(tiny(2), [](Core& c) {
    const Addr flag = c.machine().lm_base(1);
    if (c.id() == 0) {
      for (uint32_t v : {1u, 2u}) {  // the first value is rejected
        c.idle(500);
        c.remote_write(1, flag, &v, 4);
      }
    } else {
      EXPECT_EQ(c.poll_u32(flag, MemClass::kSync,
                           [](uint32_t v) { return v == 2; }),
                2u);
    }
  });
  EXPECT_GE(o.polls_slept, 2u);
}

TEST(PollSleep, WritePostedBeforeThePollerParks) {
  const MachineConfig cfg = tiny(2);
  const uint64_t flight = neighbour_flight(cfg);
  const uint64_t load = cfg.timing.lm_load;
  uint64_t arrival = 0;
  std::vector<uint64_t> done_at;
  const Outcome o = run_both(cfg, [&](Core& c) {
    const Addr flag = c.machine().lm_base(1);
    if (c.id() == 0) {
      const uint32_t one = 1;
      arrival = c.remote_write(1, flag, &one, 4);
    } else {
      // The first poll reads after the packet was posted (at 1 +
      // noc_send_cost) and before it lands.
      c.idle(flight - load - 2);
      c.poll_u32(flag, MemClass::kSync, [](uint32_t v) { return v == 1; });
      done_at.push_back(c.now());
    }
  });
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], done_at[1]);
  const PollSchedule polls{flight - 2, 2, 64, load};  // the failed read
  EXPECT_GT(polls.read, 1 + cfg.timing.noc_send_cost);
  EXPECT_LT(polls.read, arrival);
  EXPECT_EQ(done_at[0], polls.first_read_at(arrival));
  EXPECT_GE(o.polls_slept, 1u);
}

TEST(PollSleep, ArrivalExactlyOnAReadTime) {
  const MachineConfig cfg = tiny(2);
  const uint64_t flight = neighbour_flight(cfg);
  const uint64_t load = cfg.timing.lm_load;
  // The poller reads at `load`, then at each read + backoff + load: aim
  // the packet at its fourth read, posted after the poller fell asleep.
  PollSchedule polls{load, 2, 64, load};
  for (int i = 0; i < 3; ++i) polls.step();
  const uint64_t target = polls.read;
  ASSERT_GT(target, flight);
  std::vector<uint64_t> done_at;
  const Outcome o = run_both(cfg, [&](Core& c) {
    const Addr flag = c.machine().lm_base(1);
    if (c.id() == 0) {
      c.idle(target - flight);
      const uint32_t one = 1;
      EXPECT_EQ(c.remote_write(1, flag, &one, 4), target);
    } else {
      c.poll_u32(flag, MemClass::kSync, [](uint32_t v) { return v == 1; });
      done_at.push_back(c.now());
    }
  });
  // A read at exactly the arrival time sees the write.
  EXPECT_EQ(done_at, (std::vector<uint64_t>{target, target}));
  EXPECT_GE(o.polls_slept, 1u);
}

TEST(PollSleep, BarrierWaitersWokenFarInTheFuture) {
  // Three waiters poll their sense flags with backoff 8..4096 while the
  // last arrival computes for millions of cycles.
  const Outcome o = run_both(tiny(4), [](Machine& m) {
    auto barrier = std::make_shared<sync::Barrier>(m, kSdramBase + 256, 64);
    return [barrier](Core& c) {
      if (c.id() == 3) c.compute(3'000'000);
      barrier->wait(c);
      barrier->wait(c);
    };
  });
  EXPECT_GE(o.polls_slept, 3u);
  EXPECT_GT(o.stats[0].idle, 3'000'000u);
}

TEST(PollSleep, NeverGrantedPollerHitsTheSameWatchdog) {
  MachineConfig cfg = tiny(2);
  cfg.max_cycles = 200'000;
  const Outcome o = run_both(cfg, [](Core& c) {
    if (c.id() == 1) {
      c.poll_u32(c.machine().lm_base(1), MemClass::kSync,
                 [](uint32_t v) { return v == 1; });
    }
  });
  EXPECT_NE(o.error.find("watchdog: core 1 passed 200000"), std::string::npos)
      << o.error;
  EXPECT_GE(o.polls_slept, 1u);
}

TEST(PollSleep, OnlyOwnLocalMemorySleeps) {
  // An SDRAM flag can change without a posted write to a local memory, so
  // its polls step in both runs.
  MachineConfig cfg = tiny(2);
  cfg.cache_shared = false;
  const Outcome o = run_both(cfg, [](Core& c) {
    if (c.id() == 0) {
      c.idle(300);
      c.store_u32(kSdramBase + 64, 1, MemClass::kSync);
    } else {
      c.poll_u32(kSdramBase + 64, MemClass::kSync,
                 [](uint32_t v) { return v == 1; });
    }
  });
  EXPECT_EQ(o.polls_slept, 0u);
}

// ---------------------------------------------------------------------------
// Every Fig. 8 kernel and the motion-estimation app on every back-end
// ---------------------------------------------------------------------------

struct AppRun {
  std::vector<CoreStats> stats;
  uint64_t makespan = 0;
  uint64_t state_hash = 0;
  uint64_t checksum = 0;
  uint64_t polls_slept = 0;
};

AppRun run_app(apps::App& app, rt::Target target, bool policed) {
  rt::ProgramOptions o;
  o.target = target;
  o.cores = 4;
  o.machine.lm_bytes = 128 * 1024;
  o.machine.sdram_bytes = 4 * 1024 * 1024;
  o.machine.max_cycles = 800'000'000;
  o.lock_capacity = 512;
  o.validate = false;
  PassThrough policy;
  if (policed) o.schedule_policy = &policy;
  app.tune(o);
  rt::Program prog(o);
  app.build(prog);
  prog.run([&](rt::Env& env) { app.body(env); });
  Machine& m = *prog.machine();
  AppRun r;
  for (int c = 0; c < prog.cores(); ++c) {
    r.stats.push_back(m.stats(c));
    r.makespan = std::max(r.makespan, m.stats(c).cycles_total);
  }
  r.checksum = app.checksum(prog);
  r.state_hash = m.state_hash();
  r.polls_slept = m.polls_slept();
  return r;
}

std::unique_ptr<apps::App> make_app(int which) {
  switch (which) {
    case 0: {
      apps::RadiosityConfig c;
      c.patches = 48;
      c.neighbors = 6;
      c.iterations = 2;
      return std::make_unique<apps::RadiosityLike>(c);
    }
    case 1: {
      apps::RaytraceConfig c;
      c.width = 24;
      c.height = 24;
      c.spheres = 12;
      return std::make_unique<apps::RaytraceLike>(c);
    }
    case 2: {
      apps::VolrendConfig c;
      c.volume = 16;
      c.image = 20;
      return std::make_unique<apps::VolrendLike>(c);
    }
    default: {
      apps::MotionConfig c;
      c.blocks_x = 3;
      c.blocks_y = 2;
      c.block = 6;
      c.search = 3;
      return std::make_unique<apps::MotionEst>(c);
    }
  }
}

class SleepDifferential : public ::testing::TestWithParam<rt::Target> {};

TEST_P(SleepDifferential, EveryAppIsBitIdenticalWithAndWithoutSleep) {
  for (int which = 0; which < 4; ++which) {
    // The Fig. 8 kernels keep their objects in SDRAM, which the DSM
    // back-end cannot replicate; motion estimation runs everywhere.
    if (which < 3 && GetParam() == rt::Target::kDSM) continue;
    const auto slept_app = make_app(which);
    const auto stepped_app = make_app(which);
    const AppRun slept = run_app(*slept_app, GetParam(), /*policed=*/false);
    const AppRun stepped = run_app(*stepped_app, GetParam(), /*policed=*/true);
    SCOPED_TRACE(slept_app->name());
    EXPECT_EQ(slept.makespan, stepped.makespan);
    EXPECT_EQ(slept.checksum, stepped.checksum);
    EXPECT_EQ(slept.state_hash, stepped.state_hash);
    ASSERT_EQ(slept.stats.size(), stepped.stats.size());
    for (size_t c = 0; c < slept.stats.size(); ++c) {
      EXPECT_TRUE(same_stats(slept.stats[c], stepped.stats[c])) << "core " << c;
    }
    EXPECT_GT(slept.polls_slept, 0u);
    EXPECT_EQ(stepped.polls_slept, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SleepDifferential, ::testing::ValuesIn(rt::sim_targets()),
    [](const ::testing::TestParamInfo<rt::Target>& info) {
      return std::string(rt::to_string(info.param));
    });

}  // namespace
}  // namespace pmc::sim
