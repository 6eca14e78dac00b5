// Memory module: storage, in-flight writes, arrival ordering, atomics.
#include "sim/mem_module.h"

#include <gtest/gtest.h>

#include <utility>

#include "util/check.h"

namespace pmc::sim {
namespace {

TEST(MemModule, ReadBackWrites) {
  MemModule m("m", 0x1000, 256);
  const uint32_t v = 0xdeadbeef;
  m.write(0, 0x1010, &v, 4);
  uint32_t out = 0;
  m.read(0, 0x1010, &out, 4);
  EXPECT_EQ(out, v);
}

TEST(MemModule, PendingWriteInvisibleBeforeArrival) {
  MemModule m("m", 0, 64);
  const uint32_t v = 7;
  m.post_write(/*arrival=*/100, 0, &v, 4);
  uint32_t out = 1;
  m.read(99, 0, &out, 4);
  EXPECT_EQ(out, 0u);  // not yet arrived
  m.read(100, 0, &out, 4);
  EXPECT_EQ(out, 7u);
}

TEST(MemModule, PendingWritesApplyInArrivalOrder) {
  MemModule m("m", 0, 64);
  const uint32_t a = 1, b = 2;
  // Posted in one order, arriving in the other — the Fig. 1 mechanism.
  m.post_write(200, 0, &a, 4);
  m.post_write(150, 0, &b, 4);
  uint32_t out = 0;
  m.read(175, 0, &out, 4);
  EXPECT_EQ(out, 2u);
  m.read(250, 0, &out, 4);
  EXPECT_EQ(out, 1u);
}

TEST(MemModule, SameArrivalOrderedBySequence) {
  MemModule m("m", 0, 64);
  const uint32_t a = 1, b = 2;
  m.post_write(100, 0, &a, 4);
  m.post_write(100, 0, &b, 4);
  uint32_t out = 0;
  m.read(100, 0, &out, 4);
  EXPECT_EQ(out, 2u);  // later post wins the tie
}

TEST(MemModule, LocalWriteAppliesPendingFirst) {
  MemModule m("m", 0, 64);
  const uint32_t remote = 9, local = 5;
  m.post_write(10, 0, &remote, 4);
  m.write(20, 0, &local, 4);  // after the arrival: local value stands
  uint32_t out = 0;
  m.read(20, 0, &out, 4);
  EXPECT_EQ(out, 5u);
}

TEST(MemModule, LateArrivalOverwritesLocalWrite) {
  MemModule m("m", 0, 64);
  const uint32_t remote = 9, local = 5;
  m.post_write(50, 0, &remote, 4);
  m.write(20, 0, &local, 4);
  uint32_t out = 0;
  m.read(60, 0, &out, 4);
  EXPECT_EQ(out, 9u);  // in-flight write lands later: it wins
}

TEST(MemModule, AtomicSwapAndAdd) {
  MemModule m("m", 0, 64);
  EXPECT_EQ(m.atomic_swap_u32(0, 0, 11), 0u);
  EXPECT_EQ(m.atomic_swap_u32(1, 0, 22), 11u);
  EXPECT_EQ(m.atomic_add_u32(2, 0, 5), 22u);
  uint32_t out = 0;
  m.read(3, 0, &out, 4);
  EXPECT_EQ(out, 27u);
}

TEST(MemModule, PortReservationSerializes) {
  MemModule m("m", 0, 64);
  EXPECT_EQ(m.reserve_port(100, 8), 100u);
  EXPECT_EQ(m.reserve_port(100, 8), 108u);  // port busy until 108
  EXPECT_EQ(m.reserve_port(200, 8), 200u);  // idle gap
}

TEST(MemModule, OutOfRangeAccessIsChecked) {
  MemModule m("m", 0x100, 16);
  uint32_t v = 0;
  EXPECT_THROW(m.read(0, 0x0fc, &v, 4), util::CheckFailure);
  EXPECT_THROW(m.read(0, 0x10e, &v, 4), util::CheckFailure);
  EXPECT_FALSE(m.contains(0x10e, 4));
  EXPECT_TRUE(m.contains(0x10c, 4));
}

TEST(MemModule, ZeroLengthWriteDirtiesNoPage) {
  // A zero-byte write touches no storage, so it must not enter the dirty
  // page set — it used to mark the page under its address, inflating every
  // later snapshot.
  MemModule m("m", 0, 1024);
  const uint32_t v = 7;
  m.write(0, 512, &v, 0);
  m.post_write(10, 256, &v, 0);
  m.drain_all();
  EXPECT_TRUE(m.snapshot().pages.empty());
  m.write(20, 512, &v, 4);  // a real write still dirties its page
  EXPECT_EQ(m.snapshot().pages.size(), 1u);
}

TEST(MemModule, PortStatsAccountingIdentity) {
  // wait_cycles is exactly Σ (start − earliest) and busy_cycles exactly
  // Σ occupancy — the identity the merged metrics exports reconcile
  // against (DESIGN.md §12).
  MemModule m("m", 0, 64);
  const std::pair<uint64_t, uint64_t> reqs[] = {
      {100, 8}, {100, 8}, {110, 4}, {200, 16}, {201, 1}};
  uint64_t wait_sum = 0, busy_sum = 0;
  for (const auto& [earliest, occ] : reqs) {
    const uint64_t start = m.reserve_port(earliest, occ);
    EXPECT_GE(start, earliest);
    wait_sum += start - earliest;
    busy_sum += occ;
  }
  const MemModule::PortStats& p = m.port_stats();
  EXPECT_EQ(p.reservations, 5u);
  EXPECT_EQ(p.wait_cycles, wait_sum);
  EXPECT_EQ(p.busy_cycles, busy_sum);
  EXPECT_EQ(p.wait_hist.count, 5u);
  EXPECT_GT(wait_sum, 0u);  // the back-to-back pair really queued
}

TEST(MemModule, PortStatsSurviveSnapshotRestore) {
  MemModule m("m", 0, 64);
  m.reserve_port(100, 8);
  m.reserve_port(100, 8);
  const auto snap = m.snapshot();
  m.reserve_port(108, 8);  // branch traffic
  m.restore(snap);
  EXPECT_EQ(m.port_stats().reservations, 2u);
  EXPECT_EQ(m.port_stats().wait_cycles, 8u);
  EXPECT_EQ(m.port_stats().busy_cycles, 16u);
  // And the port clock itself rolled back with the stats.
  EXPECT_EQ(m.reserve_port(100, 1), 116u);
}

TEST(MemModule, DrainAllAndHash) {
  MemModule a("a", 0, 64), b("b", 0, 64);
  const uint32_t v = 3;
  a.post_write(1000, 0, &v, 4);
  b.post_write(1000, 0, &v, 4);
  a.drain_all();
  b.drain_all();
  EXPECT_EQ(a.pending_writes(), 0u);
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

// -- Snapshot and restore -----------------------------------------------------

TEST(MemModuleSnapshot, UntouchedModuleRestoresToItsSnapshot) {
  MemModule m("m", 0, 2048);
  const uint32_t v = 0x01020304;
  m.write(0, 0x100, &v, 4);
  m.write(1, 0x500, &v, 4);
  const MemModule::Snapshot snap = m.snapshot();
  const uint64_t want = m.content_hash();
  uint32_t out = 0;
  m.read(5, 0x100, &out, 4);  // reads write nothing
  m.restore(snap);
  EXPECT_EQ(m.content_hash(), want);
  // A write after the skipped restore is rolled back by the next one.
  m.write(6, 0x104, &v, 4);
  m.restore(snap);
  EXPECT_EQ(m.content_hash(), want);
  EXPECT_EQ(m.snapshot().pages, snap.pages);
}

TEST(MemModuleSnapshot, PageRewrittenWithIdenticalBytesRestores) {
  MemModule m("m", 0, 2048);
  const uint32_t a = 0xaaaaaaaa, b = 0xbbbbbbbb;
  m.write(0, 0x100, &a, 4);
  const MemModule::Snapshot snap = m.snapshot();
  const uint64_t want = m.content_hash();
  m.write(1, 0x100, &b, 4);
  m.write(2, 0x100, &a, 4);  // same bytes as the snapshot, new generation
  m.write(3, 0x300, &b, 4);  // a page the snapshot never saved
  m.restore(snap);
  EXPECT_EQ(m.content_hash(), want);

  // Generations never repeat across branches: a page rewritten on a
  // second branch is not mistaken for the first branch's.
  m.write(4, 0x100, &b, 4);
  const MemModule::Snapshot branch1 = m.snapshot();
  const uint64_t want1 = m.content_hash();
  m.restore(snap);
  m.write(5, 0x100, &a, 4);
  m.restore(branch1);
  EXPECT_EQ(m.content_hash(), want1);
  m.restore(snap);
  EXPECT_EQ(m.content_hash(), want);
}

TEST(MemModuleSnapshot, PendingQueueOnlyChangeRestores) {
  MemModule m("m", 0, 2048), oracle("o", 0, 2048);
  const uint32_t a = 1, b = 2;
  for (MemModule* x : {&m, &oracle}) {
    x->write(0, 0x40, &a, 4);
    x->post_write(100, 0x80, &a, 4);
  }
  const MemModule::Snapshot snap = m.snapshot();
  const uint64_t want = m.content_hash();
  m.post_write(50, 0x40, &b, 4);  // queued, never applied
  m.reserve_port(10, 4);
  m.restore(snap);
  EXPECT_EQ(m.content_hash(), want);
  EXPECT_EQ(m.pending_writes(), 1u);
  m.drain_all();
  oracle.drain_all();
  EXPECT_EQ(m.content_hash(), oracle.content_hash());
}

}  // namespace
}  // namespace pmc::sim
