// Machine/Core integration: routing, visibility, the Fig. 1 reordering,
// cache coherence effects, and whole-machine determinism.
#include "sim/machine.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace pmc::sim {
namespace {

MachineConfig tiny(int cores) {
  MachineConfig c = MachineConfig::ml605(cores);
  c.lm_bytes = 4096;
  c.sdram_bytes = 64 * 1024;
  c.max_cycles = 50'000'000;
  return c;
}

TEST(Machine, LocalMemoryLoadStore) {
  Machine m(tiny(2));
  m.run([&](Core& c) {
    const Addr a = m.lm_base(c.id());
    c.store_u32(a, 100 + static_cast<uint32_t>(c.id()), MemClass::kLocal);
    EXPECT_EQ(c.load_u32(a, MemClass::kLocal),
              100u + static_cast<uint32_t>(c.id()));
  });
}

TEST(Machine, ReadingAnotherTilesMemoryIsForbidden) {
  // The interconnect is write-only (Fig. 7): direct remote reads must trap.
  Machine m(tiny(2));
  EXPECT_THROW(m.run([&](Core& c) {
                 if (c.id() == 0) {
                   c.load_u32(m.lm_base(1), MemClass::kLocal);
                 }
               }),
               util::CheckFailure);
}

TEST(Machine, RemoteWriteBecomesVisibleAfterFlight) {
  Machine m(tiny(2));
  m.run([&](Core& c) {
    const Addr flag = m.lm_base(1);
    if (c.id() == 0) {
      const uint32_t one = 1;
      c.remote_write(1, flag, &one, 4);
    } else {
      c.poll_u32(flag, MemClass::kLocal, [](uint32_t v) { return v == 1; });
      SUCCEED();
    }
  });
  EXPECT_GT(m.stats(0).remote_writes, 0u);
}

TEST(Machine, UncachedSdramRoundTrip) {
  MachineConfig cfg = tiny(1);
  cfg.cache_shared = false;
  Machine m(cfg);
  m.run([&](Core& c) {
    c.store_u32(kSdramBase + 16, 99, MemClass::kSharedData);
    // Uncached stores are posted: spin until the write lands.
    c.poll_u32(kSdramBase + 16, MemClass::kSharedData,
               [](uint32_t v) { return v == 99; });
  });
  EXPECT_GT(m.stats(0).stall_shared_read, 0u);
  EXPECT_GT(m.stats(0).stall_write, 0u);
}

TEST(Machine, CachedReadsHitAfterFill) {
  Machine m(tiny(1));
  m.run([&](Core& c) {
    for (int i = 0; i < 8; ++i) {
      c.load_u32(kSdramBase + static_cast<Addr>(4 * i), MemClass::kSharedData);
    }
  });
  EXPECT_EQ(m.stats(0).dcache_misses, 1u);  // one 32B line
  EXPECT_EQ(m.stats(0).dcache_hits, 7u);
}

TEST(Machine, DirtyLineInvisibleUntilFlush) {
  // The write-back cache holds real bytes: without wbinval the other core
  // reads stale data; with it, the fresh value. This is the SWCC mechanism.
  MachineConfig cfg = tiny(2);
  Machine m(cfg);
  const Addr x = kSdramBase + 128;
  const Addr flag = kSdramBase + 4096;
  m.run([&](Core& c) {
    if (c.id() == 0) {
      c.store_u32(x, 42, MemClass::kSharedData);  // sits dirty in the cache
      c.store_u32(flag, 1, MemClass::kSync);      // uncached flag
    } else {
      c.poll_u32(flag, MemClass::kSync, [](uint32_t v) { return v == 1; });
      // Core 1 misses and fills from SDRAM, which still has 0.
      EXPECT_EQ(c.load_u32(x, MemClass::kSharedData), 0u);
    }
  });

  Machine m2(cfg);
  m2.run([&](Core& c) {
    if (c.id() == 0) {
      c.store_u32(x, 42, MemClass::kSharedData);
      c.cache_wbinval(x, 4);                  // flush: write becomes global
      c.idle(2 * cfg.timing.sdram_line_wb_visible + 8);
      c.store_u32(flag, 1, MemClass::kSync);
    } else {
      c.poll_u32(flag, MemClass::kSync, [](uint32_t v) { return v == 1; });
      EXPECT_EQ(c.load_u32(x, MemClass::kSharedData), 42u);
    }
  });
  EXPECT_GT(m2.stats(0).lines_flushed, 0u);
  EXPECT_GT(m2.stats(0).stall_flush, 0u);
}

TEST(Machine, StaleCachedReadWithoutInvalidate) {
  // Reader cached the line before the writer updated SDRAM: it keeps seeing
  // the stale value until it invalidates.
  Machine m(tiny(2));
  const Addr x = kSdramBase + 64;
  const Addr flag = kSdramBase + 4096;
  m.run([&](Core& c) {
    if (c.id() == 1) {
      EXPECT_EQ(c.load_u32(x, MemClass::kSharedData), 0u);  // warm the cache
      c.store_u32(flag, 1, MemClass::kSync);
      c.poll_u32(flag, MemClass::kSync, [](uint32_t v) { return v == 2; });
      // Still stale: the line sits in our cache.
      EXPECT_EQ(c.load_u32(x, MemClass::kSharedData), 0u);
      c.cache_inval(x, 4);
      EXPECT_EQ(c.load_u32(x, MemClass::kSharedData), 7u);
    } else {
      c.poll_u32(flag, MemClass::kSync, [](uint32_t v) { return v == 1; });
      c.store_u32(x, 7, MemClass::kSharedData);
      c.cache_wbinval(x, 4);
      c.idle(200);  // let the writeback land
      c.store_u32(flag, 2, MemClass::kSync);
    }
  });
}

TEST(Machine, Fig1ReorderingIsReal) {
  // Paper Fig. 1: X lives in slow memory (SDRAM), the flag in fast memory
  // (receiver's local store). Without synchronization the receiver can see
  // flag==1 while X is still in flight.
  MachineConfig cfg = MachineConfig::fig1_twomem();
  cfg.max_cycles = 1'000'000;
  Machine m(cfg);
  const Addr x = kSdramBase + 0;
  bool stale_observed = false;
  m.run([&](Core& c) {
    const Addr flag = m.lm_base(1);
    if (c.id() == 0) {
      c.store_u32(x, 42, MemClass::kSharedData);  // slow, posted
      const uint32_t one = 1;
      c.remote_write(1, flag, &one, 4);  // fast path
    } else {
      c.poll_u32(flag, MemClass::kLocal, [](uint32_t v) { return v == 1; });
      stale_observed = c.load_u32(x, MemClass::kSharedData) != 42;
    }
  });
  EXPECT_TRUE(stale_observed)
      << "the motivating example must break on this configuration";
}

TEST(Machine, AtomicsSerializeAcrossCores) {
  Machine m(tiny(4));
  const Addr ctr = kSdramBase + 8;
  m.run([&](Core& c) {
    for (int i = 0; i < 10; ++i) c.atomic_add(ctr, 1);
  });
  uint32_t v = 0;
  m.peek(ctr, &v, 4);
  EXPECT_EQ(v, 40u);
}

TEST(Machine, ComputeChargesBackgroundStalls) {
  MachineConfig cfg = tiny(1);
  cfg.profile.imiss_per_mille = 100;   // 1 miss / 10 instructions
  cfg.profile.priv_miss_per_mille = 50;
  Machine m(cfg);
  m.run([&](Core& c) { c.compute(1000); });
  const CoreStats& s = m.stats(0);
  EXPECT_EQ(s.instructions, 1000u);
  EXPECT_EQ(s.busy, 1000u);
  EXPECT_EQ(s.stall_ifetch, 100u * cfg.timing.imiss_penalty);
  EXPECT_EQ(s.stall_private_read, 50u * cfg.timing.priv_miss_penalty);
  EXPECT_EQ(s.cycles_total, s.busy + s.stall_total());
}

TEST(Machine, DeterministicStateHash) {
  auto one_run = [] {
    Machine m(tiny(4));
    const Addr ctr = kSdramBase + 8;
    m.run([&](Core& c) {
      for (int i = 0; i < 50; ++i) {
        c.atomic_add(ctr, static_cast<uint32_t>(c.id() + 1));
        c.compute(10 + static_cast<uint64_t>(c.id()));
        const Addr mine = m.lm_base(c.id());
        c.store_u32(mine, c.load_u32(ctr, MemClass::kSync), MemClass::kLocal);
        if (c.id() != 0) {
          uint32_t v = static_cast<uint32_t>(i);
          c.remote_write(0, m.lm_base(0) + 64, &v, 4);
        }
      }
    });
    return m.state_hash();
  };
  EXPECT_EQ(one_run(), one_run());
}

TEST(Machine, PokePeekBackdoor) {
  Machine m(tiny(1));
  const uint32_t v = 123;
  m.poke(kSdramBase + 100, &v, 4);
  uint32_t out = 0;
  m.peek(kSdramBase + 100, &out, 4);
  EXPECT_EQ(out, 123u);
}

TEST(Machine, MachineRunsOnlyOnce) {
  Machine m(tiny(1));
  m.run([](Core&) {});
  EXPECT_THROW(m.run([](Core&) {}), util::CheckFailure);
}

TEST(Machine, MisalignedAccessChecked) {
  Machine m(tiny(1));
  EXPECT_THROW(
      m.run([&](Core& c) { c.load_u32(kSdramBase + 2, MemClass::kSync); }),
      util::CheckFailure);
}

TEST(Machine, RaggedMeshConfigRejected) {
  // 12 tiles cannot fill rows of 8 — the shape the old
  // `mesh_width = min(8, cores)` rule silently built.
  MachineConfig c = tiny(12);
  c.mesh_width = 8;
  EXPECT_THROW(Machine m(c), util::CheckFailure);
  c.mesh_width = MachineConfig::derive_mesh_width(12);
  EXPECT_EQ(c.mesh_width, 6);
  Machine ok(c);  // derived widths always divide
}

TEST(Machine, ValidateRejectsImpossibleShapes) {
  EXPECT_THROW(
      {
        MachineConfig c = tiny(2);
        c.lm_bytes = 0;
        c.validate();
      },
      util::CheckFailure);
  EXPECT_THROW(
      {
        MachineConfig c = tiny(2);
        c.sdram_bytes = 0;
        c.validate();
      },
      util::CheckFailure);
  EXPECT_THROW(
      {
        MachineConfig c = tiny(2);
        c.dcache.line_bytes = 24;  // not a power of two
        c.validate();
      },
      util::CheckFailure);
  EXPECT_THROW(
      {
        MachineConfig c = tiny(2);
        c.mesh_width = 0;
        c.validate();
      },
      util::CheckFailure);
}

TEST(Machine, MeshNocModelIsDeterministic) {
  // The contention model must stay bit-deterministic: same program, same
  // config ⇒ same final state and same contention totals.
  auto one_run = [](uint64_t* stalls) {
    MachineConfig cfg = tiny(8);
    cfg.noc_model = NocModel::kMesh;
    cfg.noc_buffer_words = 2;
    cfg.timing.noc_per_word = 4;
    Machine m(cfg);
    m.run([&](Core& c) {
      for (int i = 0; i < 10; ++i) {
        uint32_t v = static_cast<uint32_t>(100 * c.id() + i);
        c.remote_write((c.id() + 3) % 8, m.lm_base((c.id() + 3) % 8) + 256,
                       &v, 4);
        c.atomic_add(kSdramBase + 8, 1);
      }
    });
    *stalls = m.noc().link_stall_cycles();
    return m.state_hash();
  };
  uint64_t s1 = 0, s2 = 0;
  const uint64_t h1 = one_run(&s1);
  const uint64_t h2 = one_run(&s2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(s1, s2);
}

TEST(Machine, ExportMetricsReconcilesWithCounters) {
  MachineConfig cfg = tiny(4);
  cfg.noc_model = NocModel::kMesh;
  Machine m(cfg);
  m.run([&](Core& c) {
    uint32_t v = 1;
    c.remote_write((c.id() + 1) % 4, m.lm_base((c.id() + 1) % 4) + 64, &v, 4);
    c.atomic_add(kSdramBase + 8, 1);
  });
  obs::MetricsRegistry reg;
  m.export_metrics(reg);
  EXPECT_EQ(reg.counter("noc.packets"), m.noc().packets_sent());
  EXPECT_EQ(reg.counter("noc.bytes"), m.noc().bytes_sent());
  EXPECT_EQ(reg.counter("noc.link_stall_cycles"),
            m.noc().link_stall_cycles());
  // The merged port histogram's population equals the reservation count —
  // the accounting identity, machine-wide.
  const obs::Histogram* wait = reg.histogram("port.wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, reg.counter("port.reservations"));
  EXPECT_GT(reg.counter("port.reservations"), 0u);
}

}  // namespace
}  // namespace pmc::sim
