// The sync primitives themselves under schedule exploration: mutual
// exclusion of both lock managers and the ordering guarantee of the
// sense-reversing barrier must hold on every explored interleaving — raw on
// the machine (no runtime back-end in the way) and at the Env level on all
// four Table II back-ends. Everything goes through the CheckSession front
// door; raw runners ride along wrapped in FnTarget (DESIGN.md §9).
#include <gtest/gtest.h>

#include <memory>

#include "explore/check.h"
#include "explore/program_gen.h"
#include "sim/machine.h"
#include "sync/barrier.h"
#include "sync/locks.h"

namespace pmc::explore {
namespace {

using sim::Addr;
using sim::Core;
using sim::Machine;
using sim::MachineConfig;
using sim::MemClass;

constexpr Addr kLockArea = sim::kSdramBase;
constexpr uint32_t kLockAreaBytes = 8 * 1024;
constexpr Addr kCounterWord = sim::kSdramBase + 64 * 1024;
constexpr Addr kSlotBase = sim::kSdramBase + 96 * 1024;

MachineConfig raw_cfg(int cores) {
  MachineConfig c = MachineConfig::ml605(cores);
  c.lm_bytes = 16 * 1024;
  c.sdram_bytes = 256 * 1024;
  c.max_cycles = 500'000'000;
  // Plain loads/stores go straight to SDRAM (no private-cache staleness),
  // so the shared counter is coherent if and only if the lock serializes
  // its read-modify-write — exactly the property under test.
  c.cache_shared = false;
  return c;
}

/// One schedule of `cores` cores incrementing a plain shared counter
/// `rounds` times each, with or without a lock around the increment.
RunOutcome run_lock_once(bool dist, bool locked, int cores, int rounds,
                         ReplayPolicy& policy) {
  RunOutcome out;
  try {
    Machine m(raw_cfg(cores));
    m.set_schedule_policy(&policy);
    std::unique_ptr<sync::LockManager> locks;
    if (dist) {
      locks = std::make_unique<sync::DistLockManager>(
          m, kLockArea, kLockAreaBytes, /*lm_offset=*/0, 8 * 1024);
    } else {
      locks = std::make_unique<sync::SpinLockManager>(m, kLockArea,
                                                      kLockAreaBytes);
    }
    const int l = locks->create();
    m.run([&](Core& core) {
      for (int r = 0; r < rounds; ++r) {
        if (locked) locks->acquire(core, l);
        const uint32_t v = core.load_u32(kCounterWord, MemClass::kSharedData);
        core.compute(8);
        core.store_u32(kCounterWord, v + 1, MemClass::kSharedData);
        if (locked) locks->release(core, l);
        core.compute(5);
      }
    });
    out.trace_hash = m.state_hash();
    uint32_t final_value = 0;
    m.peek(kCounterWord, &final_value, sizeof final_value);
    const uint32_t want = static_cast<uint32_t>(cores * rounds);
    if (final_value != want) {
      out.ok = false;
      out.message = "lost update: counter is " + std::to_string(final_value) +
                    ", mutual exclusion requires " + std::to_string(want);
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.message = e.what();
  }
  return out;
}

/// One schedule of a per-round barrier protocol: every core publishes its
/// round number, waits, then requires every other core's slot to have
/// reached that round — the barrier's all-arrived-before-anyone-leaves
/// guarantee, observed through memory.
RunOutcome run_barrier_once(int cores, int rounds, ReplayPolicy& policy) {
  RunOutcome out;
  try {
    Machine m(raw_cfg(cores));
    m.set_schedule_policy(&policy);
    sync::Barrier bar(m, /*count_word=*/kLockArea, /*lm_flag_offset=*/0);
    const auto slot = [](int id) {
      return kSlotBase + static_cast<Addr>(id) * 64;
    };
    std::string violation;  // single-runner safe, like the machine itself
    m.run([&](Core& core) {
      for (uint32_t r = 1; r <= static_cast<uint32_t>(rounds); ++r) {
        core.store_u32(slot(core.id()), r, MemClass::kSharedData);
        bar.wait(core);
        for (int j = 0; j < core.num_cores(); ++j) {
          const uint32_t v = core.load_u32(slot(j), MemClass::kSharedData);
          if (v < r && violation.empty()) {
            violation = "core " + std::to_string(core.id()) +
                        " left barrier round " + std::to_string(r) +
                        " but saw core " + std::to_string(j) + " at round " +
                        std::to_string(v);
          }
        }
      }
    });
    out.trace_hash = m.state_hash();
    if (!violation.empty()) {
      out.ok = false;
      out.message = violation;
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.message = e.what();
  }
  return out;
}

ExploreConfig sync_cfg() {
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 14;
  return cfg;
}

class LockKind : public ::testing::TestWithParam<bool> {};

TEST_P(LockKind, MutualExclusionHoldsOnEveryExploredSchedule) {
  const bool dist = GetParam();
  const CheckSession session(sync_cfg(), /*jobs=*/2);
  const auto rep = session.explore(FnTarget("locked", [dist](ReplayPolicy& p) {
    return run_lock_once(dist, /*locked=*/true, /*cores=*/2,
                         /*rounds=*/2, p);
  }));
  EXPECT_EQ(rep.failing, 0u)
      << "schedule \"" << to_string(rep.first_failing)
      << "\": " << rep.first_failing_message;
  EXPECT_GE(rep.explored, 2u);
  EXPECT_GT(rep.distinct_traces, 0u);
}

TEST_P(LockKind, OracleHasTeethWithoutTheLock) {
  // Drop the lock and the very same oracle must catch a lost update on some
  // (often every) interleaving — the explorer is not vacuously green.
  const bool dist = GetParam();
  ExploreConfig cfg = sync_cfg();
  cfg.horizon = 20;
  const CheckSession session(cfg, /*jobs=*/2);
  const auto rep =
      session.explore(FnTarget("unlocked", [dist](ReplayPolicy& p) {
        return run_lock_once(dist, /*locked=*/false, /*cores=*/2,
                             /*rounds=*/2, p);
      }));
  EXPECT_GT(rep.failing, 0u)
      << "no explored schedule lost an update on the unlocked counter";
}

INSTANTIATE_TEST_SUITE_P(Managers, LockKind, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("dist")
                                             : std::string("spin");
                         });

TEST(BarrierExplore, AllArrivedBeforeAnyoneLeavesOnEverySchedule) {
  const CheckSession session(sync_cfg(), /*jobs=*/2);
  const auto rep = session.explore(FnTarget("barrier", [](ReplayPolicy& p) {
    return run_barrier_once(3, /*rounds=*/2, p);
  }));
  EXPECT_EQ(rep.failing, 0u)
      << "schedule \"" << to_string(rep.first_failing)
      << "\": " << rep.first_failing_message;
  EXPECT_GE(rep.explored, 2u);
}

// -- The same properties through the Env annotations, per back-end ----------

GenProgram mutex_program(int cores, int rounds) {
  GenProgram prog;
  prog.shape.seed = 0;
  prog.shape.cores = cores;
  prog.shape.objects = 1;
  prog.shape.steps = rounds;
  prog.threads.resize(static_cast<size_t>(cores));
  for (auto& th : prog.threads) {
    for (int r = 0; r < rounds; ++r) {
      GenOp op;
      op.kind = GenOp::Kind::kUpdate;
      op.obj = 0;
      op.arg = 1;
      th.push_back(op);
    }
    th.push_back({GenOp::Kind::kBarrier});
  }
  return prog;
}

class BackendSync : public ::testing::TestWithParam<rt::Target> {};

TEST_P(BackendSync, EntryExitMutualExclusionOnEverySchedule) {
  // cores × rounds exclusive increments of one object: the closed-form
  // oracle (== cores·rounds) fails on any schedule where the back-end's
  // entry_x/exit_x (lock + Table II data movement) lets an update slip.
  const GenProgramTarget target(mutex_program(/*cores=*/2, /*rounds=*/3),
                                GetParam());
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 12;
  const auto rep = CheckSession(cfg, /*jobs=*/2).explore(target);
  EXPECT_EQ(rep.failing, 0u)
      << rt::to_string(GetParam()) << ": schedule \""
      << to_string(rep.first_failing) << "\": " << rep.first_failing_message;
}

/// Barrier visibility at the Env level: each core writes its own object,
/// barriers, then reads everyone's. DSM runs eager release like every
/// unsynchronized-reader litmus (a lazy replica may legally stay stale —
/// the paper's "slow reads").
RunOutcome run_env_barrier_once(rt::Target t, int cores,
                                ReplayPolicy& policy) {
  RunOutcome out;
  try {
    rt::ProgramOptions opts;
    opts.target = t;
    opts.cores = cores;
    opts.machine = sim::MachineConfig::ml605(cores);
    opts.machine.lm_bytes = 32 * 1024;
    opts.machine.sdram_bytes = 256 * 1024;
    opts.machine.max_cycles = 100'000'000;
    opts.validate = true;
    opts.policy.dsm_eager_release = true;
    opts.schedule_policy = &policy;
    rt::Program p(opts);
    std::vector<rt::ObjId> objs;
    for (int i = 0; i < cores; ++i) {
      objs.push_back(p.create_typed<uint32_t>(0, rt::Placement::kReplicated,
                                              "b" + std::to_string(i)));
    }
    std::vector<uint32_t> seen(static_cast<size_t>(cores * cores), 0);
    p.run([&](rt::Env& env) {
      const auto me = static_cast<size_t>(env.id());
      env.entry_x(objs[me]);
      env.st<uint32_t>(objs[me], 0, 100u + static_cast<uint32_t>(me));
      env.exit_x(objs[me]);
      env.barrier();
      for (int j = 0; j < cores; ++j) {
        env.entry_ro(objs[static_cast<size_t>(j)]);
        seen[me * static_cast<size_t>(cores) + static_cast<size_t>(j)] =
            env.ld<uint32_t>(objs[static_cast<size_t>(j)]);
        env.exit_ro(objs[static_cast<size_t>(j)]);
      }
    });
    out.trace_hash = p.machine() != nullptr ? p.machine()->state_hash() : 0;
    if (p.validator() != nullptr && !p.validator()->ok()) {
      out.ok = false;
      out.message =
          "Definition 12 violation: " + p.validator()->first_violation();
      return out;
    }
    for (int i = 0; i < cores && out.ok; ++i) {
      for (int j = 0; j < cores; ++j) {
        const uint32_t v =
            seen[static_cast<size_t>(i) * static_cast<size_t>(cores) +
                 static_cast<size_t>(j)];
        if (v != 100u + static_cast<uint32_t>(j)) {
          out.ok = false;
          out.message = "core " + std::to_string(i) +
                        " read a pre-barrier value of object " +
                        std::to_string(j) + " (" + std::to_string(v) + ")";
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.message = e.what();
  }
  return out;
}

TEST_P(BackendSync, BarrierMakesPreBarrierWritesVisibleOnEverySchedule) {
  const rt::Target t = GetParam();
  ExploreConfig cfg;
  cfg.preemption_bound = 1;
  cfg.horizon = 12;
  const CheckSession session(cfg, /*jobs=*/2);
  const auto rep = session.explore(FnTarget(
      "env-barrier",
      [t](ReplayPolicy& p) { return run_env_barrier_once(t, 2, p); }));
  EXPECT_EQ(rep.failing, 0u)
      << rt::to_string(t) << ": schedule \"" << to_string(rep.first_failing)
      << "\": " << rep.first_failing_message;
  EXPECT_GE(rep.explored, 2u);
}

INSTANTIATE_TEST_SUITE_P(SimTargets, BackendSync,
                         ::testing::ValuesIn(rt::sim_targets()),
                         [](const auto& info) {
                           return std::string(rt::to_string(info.param));
                         });

}  // namespace
}  // namespace pmc::explore
