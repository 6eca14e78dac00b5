// Mutual exclusion, progress, and the asymmetric cost properties of the two
// lock implementations.
#include "sync/locks.h"

#include <gtest/gtest.h>

#include <memory>

#include "util/check.h"

namespace pmc::sync {
namespace {

using sim::Addr;
using sim::Core;
using sim::Machine;
using sim::MachineConfig;
using sim::MemClass;

constexpr Addr kLockArea = sim::kSdramBase;
constexpr uint32_t kLockAreaBytes = 16 * 1024;
constexpr uint32_t kLmLockOff = 0;

MachineConfig cfg(int cores) {
  MachineConfig c = MachineConfig::ml605(cores);
  c.lm_bytes = 16 * 1024;
  c.sdram_bytes = 256 * 1024;
  c.max_cycles = 200'000'000;
  return c;
}

std::unique_ptr<LockManager> make(Machine& m, bool dist) {
  if (dist) {
    return std::make_unique<DistLockManager>(m, kLockArea, kLockAreaBytes,
                                             kLmLockOff, 8 * 1024);
  }
  return std::make_unique<SpinLockManager>(m, kLockArea, kLockAreaBytes);
}

class LockKind : public ::testing::TestWithParam<bool> {};

TEST_P(LockKind, MutualExclusionUnderContention) {
  Machine m(cfg(8));
  auto locks = make(m, GetParam());
  const int l = locks->create();
  int inside = -1;       // host-side overlap detector (single-runner safe)
  int violations = 0;
  int completed = 0;
  m.run([&](Core& c) {
    for (int i = 0; i < 25; ++i) {
      locks->acquire(c, l);
      if (inside != -1) ++violations;
      inside = c.id();
      c.compute(20 + static_cast<uint64_t>(c.id()) % 7);
      if (inside != c.id()) ++violations;
      inside = -1;
      locks->release(c, l);
      c.compute(10);
    }
    ++completed;
  });
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(completed, 8);
}

TEST_P(LockKind, UncontendedAcquireIsCheap) {
  Machine m(cfg(2));
  auto locks = make(m, GetParam());
  const int l = locks->create();
  m.run([&](Core& c) {
    if (c.id() != 0) return;
    for (int i = 0; i < 100; ++i) {
      locks->acquire(c, l);
      locks->release(c, l);
    }
  });
  // Uncontended: bounded atomics per round (TAS once / swap + CAS).
  EXPECT_LE(m.stats(0).atomics, 2u * 100u);
}

TEST_P(LockKind, ManyLocksAreIndependent) {
  Machine m(cfg(4));
  auto locks = make(m, GetParam());
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(locks->create());
  m.run([&](Core& c) {
    // Each core uses its own lock: no interference, quick completion.
    for (int i = 0; i < 50; ++i) {
      locks->acquire(c, ids[c.id()]);
      c.compute(5);
      locks->release(c, ids[c.id()]);
    }
  });
  SUCCEED();
}

TEST_P(LockKind, PreviousHolderTracksTransfer) {
  Machine m(cfg(2));
  auto locks = make(m, GetParam());
  const int l = locks->create();
  std::vector<int> seen;
  const Addr turn = sim::kSdramBase + kLockAreaBytes + 64;
  m.run([&](Core& c) {
    if (c.id() == 0) {
      locks->acquire(c, l);
      seen.push_back(locks->previous_holder(l));  // never held: -1
      locks->release(c, l);
      c.store_u32(turn, 1, MemClass::kSync);
    } else {
      c.poll_u32(turn, MemClass::kSync, [](uint32_t v) { return v == 1; });
      locks->acquire(c, l);
      seen.push_back(locks->previous_holder(l));  // transferred from core 0
      locks->release(c, l);
    }
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], -1);
  EXPECT_EQ(seen[1], 0);
}

TEST_P(LockKind, ReleaseWithoutHoldIsChecked) {
  Machine m(cfg(2));
  auto locks = make(m, GetParam());
  const int l = locks->create();
  EXPECT_THROW(m.run([&](Core& c) {
                 if (c.id() == 1) locks->release(c, l);
               }),
               util::CheckFailure);
}

INSTANTIATE_TEST_SUITE_P(SpinAndDist, LockKind, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& inf) {
                           return inf.param ? "Distributed" : "Spin";
                         });

TEST(DistLock, ContendedPollingStaysLocal) {
  // Under contention the distributed lock polls only local memory: its
  // atomic-unit traffic stays at ~1 op per acquire/release while the spin
  // lock's grows with waiting time.
  auto run = [](bool dist) {
    Machine m(cfg(8));
    auto locks = make(m, dist);
    const int l = locks->create();
    m.run([&](Core& c) {
      for (int i = 0; i < 20; ++i) {
        locks->acquire(c, l);
        c.compute(200);  // long critical section: heavy contention
        locks->release(c, l);
      }
    });
    return m.stats_sum().atomics;
  };
  const uint64_t spin_atomics = run(false);
  const uint64_t dist_atomics = run(true);
  EXPECT_LT(dist_atomics, spin_atomics / 2)
      << "distributed lock must not hammer the atomic unit";
  // 8 cores × 20 rounds, ≤ swap+cas each.
  EXPECT_LE(dist_atomics, 8u * 20u * 2u);
}

TEST(DistLock, HandoffUsesNocNotSdram) {
  Machine m(cfg(4));
  DistLockManager locks(m, kLockArea, kLockAreaBytes, kLmLockOff, 8 * 1024);
  const int l = locks.create();
  m.run([&](Core& c) {
    for (int i = 0; i < 10; ++i) {
      locks.acquire(c, l);
      c.compute(50);
      locks.release(c, l);
    }
  });
  EXPECT_GT(locks.handoffs(), 0u);
  EXPECT_GT(m.stats_sum().remote_writes, locks.handoffs());
}

TEST(DistLock, LockAreaExhaustionIsChecked) {
  Machine m(cfg(2));
  DistLockManager locks(m, kLockArea, /*area_bytes=*/128, kLmLockOff, 1024);
  locks.create();
  locks.create();
  EXPECT_THROW(locks.create(), util::CheckFailure);
}

}  // namespace
}  // namespace pmc::sync
