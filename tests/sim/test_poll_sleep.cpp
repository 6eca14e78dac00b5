// The shortcuts of unobserved runs (DESIGN.md §2): a core that fails a poll
// of its own local memory sleeps to the first poll that can see a write,
// and a core on the application data path defers its handoffs until its
// next shared-memory touch. Every test runs the same program twice —
// unobserved, where polls sleep and handoffs defer, and under a
// pass-through policy, where every poll steps and every advance is a
// decision point — and requires identical cycles, counters, memory and
// decision counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "apps/motion_est.h"
#include "apps/radiosity_like.h"
#include "apps/raytrace_like.h"
#include "apps/volrend_like.h"
#include "model/trace.h"
#include "runtime/program.h"
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
  uint64_t port_wait = 0;  // cycles queued on the SDRAM port
  uint64_t polls_slept = 0;
  uint64_t decisions = 0;
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
  o.port_wait = m.sdram().port_stats().wait_cycles;
  o.polls_slept = m.polls_slept();
  o.decisions = m.decisions();
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
  EXPECT_EQ(slept.port_wait, stepped.port_wait);
  EXPECT_EQ(slept.decisions, stepped.decisions);
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
// Deferred handoffs: races at every settle point
// ---------------------------------------------------------------------------
//
// Each test races a core that defers far ahead against the other core's
// access at an earlier simulated time. The eager run orders the two by
// (time, core); a core that skipped the settle before its module touch
// would go first. The races are deliberate: in a synchronized program the
// eager lock and barrier operations order the two accesses anyway.

/// One way for a core to read a word, and the other core's way to write it.
struct RacePath {
  const char* name;
  Addr addr;
  MemClass read_class;
  bool remote_write;  // the write is a NoC post into the reader's memory
};

TEST(DeferredHandoffs, ReaderAheadSeesAnEarlierWrite) {
  const MachineConfig cfg = tiny(2);
  const Addr own_lm = kLmBase;  // core 0's local memory
  const RacePath paths[] = {
      {"cached SDRAM fill", kSdramBase + 256, MemClass::kSharedData, false},
      {"uncached SDRAM read", kSdramBase + 256, MemClass::kSync, false},
      {"own local memory", own_lm + 64, MemClass::kLocal, true},
      {"cluster SRAM", kClusterBase + 64, MemClass::kSync, false},
  };
  for (const RacePath& p : paths) {
    SCOPED_TRACE(p.name);
    std::vector<uint32_t> seen;
    run_both(cfg, [&](Core& c) {
      if (c.id() == 1) {
        c.idle(20);
        const uint32_t v = 7;
        if (p.remote_write) {
          c.remote_write(0, p.addr, &v, 4);
        } else {
          c.store_u32(p.addr, v, MemClass::kSync);
        }
        return;
      }
      uint32_t v = 0;
      {
        Core::Deferred defer(c);
        c.compute(2000);
        v = c.load_u32(p.addr, p.read_class);
      }
      seen.push_back(v);
      c.store_u32(own_lm + 512, v, MemClass::kLocal);
    });
    EXPECT_EQ(seen, (std::vector<uint32_t>{7, 7}));
  }
}

TEST(DeferredHandoffs, WriterAheadStaysInvisibleToAnEarlierReader) {
  // Cluster stores take effect at once; an early one would reach core 1's
  // read at cycle 20.
  std::vector<uint32_t> seen;
  run_both(tiny(2), [&](Core& c) {
    const Addr word = kClusterBase + 64;
    if (c.id() == 0) {
      Core::Deferred defer(c);
      c.compute(2000);
      c.store_u32(word, 7, MemClass::kSync);
      return;
    }
    c.idle(20);
    const uint32_t v = c.load_u32(word, MemClass::kSync);
    seen.push_back(v);
    c.store_u32(c.machine().lm_base(1) + 512, v, MemClass::kLocal);
  });
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 0}));
}

TEST(DeferredHandoffs, OwnLocalStoreAheadLandsAfterAnEarlierPost) {
  // The post arrives long before the store, so the store's value stays;
  // an early store would be overwritten when the post drains.
  run_both(tiny(2), [](Core& c) {
    const Addr word = kLmBase + 64;  // core 0's local memory
    if (c.id() == 0) {
      Core::Deferred defer(c);
      c.compute(2000);
      c.store_u32(word, 5, MemClass::kLocal);
      return;
    }
    c.idle(20);
    const uint32_t v = 9;
    c.remote_write(0, word, &v, 4);
  });
}

TEST(DeferredHandoffs, SameCyclePostsKeepTheCoreOrder) {
  // Both cores post to one SDRAM word in the same cycle. The eager order
  // puts core 0's post first, so core 1's value is the one that stays.
  std::vector<uint32_t> seen;
  run_both(tiny(2), [&](Core& c) {
    const Addr word = kSdramBase + 128;
    if (c.id() == 1) {
      Core::Deferred defer(c);
      c.idle(1000);
      c.store_u32(word, 2, MemClass::kSync);
      return;
    }
    c.idle(10);  // core 1 takes its turn at cycle 0
    c.idle(990);
    c.store_u32(word, 1, MemClass::kSync);
    c.idle(100);
    seen.push_back(c.load_u32(word, MemClass::kSync));
  });
  EXPECT_EQ(seen, (std::vector<uint32_t>{2, 2}));
}

TEST(DeferredHandoffs, WritebackAheadQueuesBehindAnEarlierOne) {
  // Both cores evict a dirty line through the shared SDRAM port. Core 0's
  // writeback is due first; an early reservation by core 1 would make it
  // queue behind core 1's.
  MachineConfig cfg = tiny(2);
  cfg.dcache.size_bytes = 1024;  // direct-mapped: line L and L + 1024 clash
  cfg.dcache.ways = 1;
  const Outcome o = run_both(cfg, [](Core& c) {
    const Addr line = kSdramBase + 4096 + static_cast<Addr>(c.id()) * 64;
    if (c.id() == 0) {
      c.store_u32(line, 1, MemClass::kSharedData);
      c.idle(500);
      c.load_u32(line + 1024, MemClass::kSharedData);
      return;
    }
    Core::Deferred defer(c);
    c.store_u32(line, 2, MemClass::kSharedData);
    c.compute(2000);
    c.load_u32(line + 1024, MemClass::kSharedData);
  });
  EXPECT_EQ(o.stats[0].writebacks + o.stats[1].writebacks, 2u);
  EXPECT_EQ(o.port_wait, 0u);
}

// ---------------------------------------------------------------------------
// Deferred handoffs: failures keep the eager schedule's order
// ---------------------------------------------------------------------------

/// Runs `body` on a two-core no-CC program with one SDRAM word object
/// named "word", unobserved or policed; returns what() of the CheckFailure
/// run() threw, empty when none.
std::string program_failure(
    const std::function<void(rt::Env&, rt::ObjId)>& body, bool policed,
    uint64_t max_cycles = 800'000'000) {
  rt::ProgramOptions o;
  o.target = rt::Target::kNoCC;
  o.cores = 2;
  o.machine.lm_bytes = 4096;
  o.machine.sdram_bytes = 64 * 1024;
  o.machine.max_cycles = max_cycles;
  o.lock_capacity = 16;
  o.validate = false;
  PassThrough policy;
  if (policed) o.schedule_policy = &policy;
  rt::Program prog(o);
  const rt::ObjId obj =
      prog.create_typed<uint32_t>(0, rt::Placement::kSdram, "word");
  try {
    prog.run([&](rt::Env& env) { body(env, obj); });
  } catch (const util::CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(DeferredHandoffs, FirstDataPathCheckFailureIsTheEagerOne) {
  // Core 0 fails later in simulated time but first on the host: it runs
  // first and its compute defers, so were the failure not to wait for its
  // turn, its error would be recorded ahead of core 1's.
  const auto body = [](rt::Env& env, rt::ObjId obj) {
    env.compute(env.id() == 0 ? 500 : 100);
    (void)env.ld<uint32_t>(obj);  // outside any section
  };
  const std::string slept = program_failure(body, /*policed=*/false);
  EXPECT_EQ(slept, program_failure(body, /*policed=*/true));
  EXPECT_NE(slept.find("core 1 reads word outside"), std::string::npos)
      << slept;
}

TEST(DeferredHandoffs, DataPathComputePastTheWatchdogFailsLikeTheEagerRun) {
  // Core 0 computes in small steps up to the watchdog without touching
  // memory, so deferred it never hands off; core 1 starts a compute that
  // cannot fit from about half-way. Core 1's failing advance starts first.
  const auto body = [](rt::Env& env, rt::ObjId) {
    if (env.id() == 0) {
      for (;;) env.compute(100);
    }
    env.compute(400'000);
    env.compute(10'000'000);
  };
  const std::string slept =
      program_failure(body, /*policed=*/false, /*max_cycles=*/1'000'000);
  EXPECT_EQ(slept, program_failure(body, /*policed=*/true, 1'000'000));
  EXPECT_NE(slept.find("watchdog: core 1 passed 1000000"), std::string::npos)
      << slept;
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
  uint64_t handoffs = 0;
  uint64_t decisions = 0;
  std::vector<model::TraceEvent> trace;  // validated runs only
  std::optional<model::TraceVerdict> verdict;
};

/// `validate` records and judges the model trace (Definition 12), which
/// adds the version-word traffic; `noc` picks the pricing model, whose mesh
/// variant queues on the SDRAM and cluster ports.
AppRun run_app(apps::App& app, rt::Target target, bool policed,
               bool validate = false, NocModel noc = NocModel::kFlat) {
  rt::ProgramOptions o;
  o.target = target;
  o.cores = 4;
  o.machine.lm_bytes = 128 * 1024;
  o.machine.sdram_bytes = 4 * 1024 * 1024;
  o.machine.max_cycles = 800'000'000;
  o.machine.noc_model = noc;
  o.lock_capacity = 512;
  o.validate = validate;
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
  r.handoffs = m.handoffs();
  r.decisions = m.decisions();
  r.trace = prog.trace();
  if (prog.verdict() != nullptr) r.verdict = *prog.verdict();
  return r;
}

/// Cycles, counters, memory and results agree between the two runs.
void expect_same_run(const AppRun& slept, const AppRun& stepped) {
  EXPECT_EQ(slept.makespan, stepped.makespan);
  EXPECT_EQ(slept.checksum, stepped.checksum);
  EXPECT_EQ(slept.state_hash, stepped.state_hash);
  EXPECT_EQ(slept.decisions, stepped.decisions);
  ASSERT_EQ(slept.stats.size(), stepped.stats.size());
  for (size_t c = 0; c < slept.stats.size(); ++c) {
    EXPECT_TRUE(same_stats(slept.stats[c], stepped.stats[c])) << "core " << c;
  }
  EXPECT_EQ(stepped.polls_slept, 0u);
  EXPECT_LT(slept.handoffs, stepped.handoffs);
}

/// The two runs recorded the same model trace, event for event, and the
/// validator judged it alike.
void expect_same_trace(const AppRun& slept, const AppRun& stepped) {
  ASSERT_EQ(slept.trace.size(), stepped.trace.size());
  for (size_t i = 0; i < slept.trace.size(); ++i) {
    const model::TraceEvent& a = slept.trace[i];
    const model::TraceEvent& b = stepped.trace[i];
    ASSERT_TRUE(a.kind == b.kind && a.proc == b.proc && a.loc == b.loc &&
                a.value == b.value)
        << "first difference at event " << i << " of " << slept.trace.size();
  }
  ASSERT_TRUE(slept.verdict.has_value() && stepped.verdict.has_value());
  EXPECT_TRUE(slept.verdict->ok) << slept.verdict->first_violation;
  EXPECT_EQ(slept.verdict->ok, stepped.verdict->ok);
  EXPECT_EQ(slept.verdict->saturated, stepped.verdict->saturated);
  EXPECT_EQ(slept.verdict->num_events, stepped.verdict->num_events);
  EXPECT_EQ(slept.verdict->first_violation, stepped.verdict->first_violation);
}

/// Every annotation between staggered data-path work: each eager call
/// starts on a core whose deferred compute, reads and writes have carried
/// it past the others, so it has to wait for its turn before the back-end,
/// the barrier or the model trace sees it. Replicated objects run on every
/// back-end.
class AnnotationWorkout final : public apps::App {
 public:
  const char* name() const override { return "annotation_workout"; }
  void build(rt::Program& prog) override {
    for (uint32_t i = 0; i < kObjects; ++i) {
      objs_[i] = prog.create_typed<uint32_t>(i, rt::Placement::kReplicated,
                                             "w" + std::to_string(i));
    }
  }
  void body(rt::Env& env) override {
    const uint64_t id = static_cast<uint64_t>(env.id());
    for (uint32_t it = 0; it < 6; ++it) {
      env.compute(37 * (id + 1) + 11 * it);
      const rt::ObjId x = objs_[(id + it) % kObjects];
      env.entry_x(x);
      const uint32_t v = env.ld<uint32_t>(x);
      env.compute(13 * (id + 1));
      env.st(x, 0, v * 3 + static_cast<uint32_t>(id) + 1);
      env.compute(7 * (id + 2));
      env.flush(x);
      env.compute(5 * (id + 1));
      env.exit_x(x);
      env.compute(19 * (id + 1));
      env.fence();
      const rt::ObjId r = objs_[(id + it + 1) % kObjects];
      env.entry_ro(r);
      sum_[id] += env.ld<uint32_t>(r);
      env.compute(3 * (id + 1));
      env.exit_ro(r);
      if (it % 2 == 1) {
        env.compute(29 * (id + 1));
        env.barrier();
      }
    }
  }
  uint64_t checksum(rt::Program& prog) override {
    uint64_t h = 0;
    for (const rt::ObjId o : objs_) h = h * 1'000'003 + prog.result<uint32_t>(o);
    for (const uint64_t v : sum_) h = h * 1'000'003 + v;
    return h;
  }

 private:
  static constexpr uint32_t kObjects = 3;
  rt::ObjId objs_[kObjects] = {};
  uint64_t sum_[4] = {};  // per core: the values read read-only
};

/// The four paper kernels, then the annotation workout.
constexpr int kApps = 5;

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
    case 3: {
      apps::MotionConfig c;
      c.blocks_x = 3;
      c.blocks_y = 2;
      c.block = 6;
      c.search = 3;
      return std::make_unique<apps::MotionEst>(c);
    }
    default:
      return std::make_unique<AnnotationWorkout>();
  }
}

class SleepDifferential : public ::testing::TestWithParam<rt::Target> {};

TEST_P(SleepDifferential, EveryAppIsBitIdenticalWithAndWithoutSleep) {
  for (int which = 0; which < kApps; ++which) {
    // The Fig. 8 kernels keep their objects in SDRAM, which the DSM
    // back-end cannot replicate; motion estimation and the workout run
    // everywhere.
    if (which < 3 && GetParam() == rt::Target::kDSM) continue;
    const auto slept_app = make_app(which);
    const auto stepped_app = make_app(which);
    const AppRun slept = run_app(*slept_app, GetParam(), /*policed=*/false);
    const AppRun stepped = run_app(*stepped_app, GetParam(), /*policed=*/true);
    SCOPED_TRACE(slept_app->name());
    expect_same_run(slept, stepped);
    EXPECT_GT(slept.polls_slept, 0u);
  }
}

TEST_P(SleepDifferential, ValidatedRunsRecordTheSameTraceOnTheMesh) {
  // Validation adds the version traffic and the model trace, whose pushes
  // must keep the eager order; the mesh model adds the SDRAM and cluster
  // port queues, which deferred cores settle before joining.
  for (int which = 0; which < kApps; ++which) {
    if (which < 3 && GetParam() == rt::Target::kDSM) continue;
    const auto slept_app = make_app(which);
    const auto stepped_app = make_app(which);
    const AppRun slept = run_app(*slept_app, GetParam(), /*policed=*/false,
                                 /*validate=*/true, NocModel::kMesh);
    const AppRun stepped = run_app(*stepped_app, GetParam(), /*policed=*/true,
                                   /*validate=*/true, NocModel::kMesh);
    SCOPED_TRACE(slept_app->name());
    expect_same_run(slept, stepped);
    expect_same_trace(slept, stepped);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SleepDifferential, ::testing::ValuesIn(rt::sim_targets()),
    [](const ::testing::TestParamInfo<rt::Target>& info) {
      return std::string(rt::to_string(info.param));
    });

}  // namespace
}  // namespace pmc::sim
