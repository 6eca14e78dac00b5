// Cache state machine: hits, LRU eviction, dirty handling, maintenance ops.
#include "sim/cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/check.h"

namespace pmc::sim {
namespace {

CacheConfig small_cache() {
  CacheConfig c;
  c.size_bytes = 256;  // 4 sets × 2 ways × 32B
  c.line_bytes = 32;
  c.ways = 2;
  return c;
}

TEST(Cache, MissThenHit) {
  Cache c(small_cache());
  EXPECT_EQ(c.lookup(0x1000), nullptr);
  Cache::Victim v;
  uint8_t* line = c.install(0x1000, &v);
  EXPECT_FALSE(v.dirty);
  std::memset(line, 0xab, 32);
  uint8_t* again = c.lookup(0x1000);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again[5], 0xab);
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(small_cache());
  Cache::Victim v;
  // Three lines mapping to the same set (stride = line_bytes × num_sets).
  const Addr stride = 32 * 4;
  c.install(0x0000, &v);
  c.install(0x0000 + stride, &v);
  c.lookup(0x0000);  // refresh line 0: line +stride becomes LRU
  c.install(0x0000 + 2 * stride, &v);
  EXPECT_NE(c.lookup(0x0000), nullptr);
  EXPECT_EQ(c.lookup(0x0000 + stride), nullptr);  // evicted
  EXPECT_NE(c.lookup(0x0000 + 2 * stride), nullptr);
}

TEST(Cache, DirtyVictimIsReturned) {
  Cache c(small_cache());
  Cache::Victim v;
  const Addr stride = 32 * 4;
  uint8_t* line = c.install(0x0000, &v);
  std::memset(line, 0x77, 32);
  c.mark_dirty(0x0000);
  c.install(stride, &v);
  EXPECT_FALSE(v.dirty);  // second way was free
  Cache::Victim v2;
  c.install(2 * stride, &v2);
  ASSERT_TRUE(v2.dirty);
  EXPECT_EQ(v2.addr, 0x0000u);
  ASSERT_EQ(v2.data.size(), 32u);
  EXPECT_EQ(v2.data[0], 0x77);
}

TEST(Cache, WbinvalReturnsDirtyData) {
  Cache c(small_cache());
  Cache::Victim v;
  uint8_t* line = c.install(0x2000, &v);
  std::memset(line, 0x11, 32);
  c.mark_dirty(0x2000);
  std::vector<uint8_t> out;
  EXPECT_TRUE(c.wbinval_line(0x2000, &out));
  ASSERT_EQ(out.size(), 32u);
  EXPECT_EQ(out[31], 0x11);
  EXPECT_EQ(c.lookup(0x2000), nullptr);
  EXPECT_FALSE(c.wbinval_line(0x2000, &out));  // already gone
}

TEST(Cache, WbinvalCleanLineReturnsNoData) {
  Cache c(small_cache());
  Cache::Victim v;
  c.install(0x2000, &v);
  std::vector<uint8_t> out{1, 2, 3};
  EXPECT_TRUE(c.wbinval_line(0x2000, &out));
  EXPECT_TRUE(out.empty());
}

TEST(Cache, InvalDiscardsDirtyData) {
  // The MicroBlaze semantics the paper calls out: invalidate without
  // writeback loses the store.
  Cache c(small_cache());
  Cache::Victim v;
  uint8_t* line = c.install(0x2000, &v);
  std::memset(line, 0x42, 32);
  c.mark_dirty(0x2000);
  EXPECT_TRUE(c.inval_line(0x2000));
  EXPECT_EQ(c.lookup(0x2000), nullptr);
  EXPECT_EQ(c.dirty_lines(), 0u);
}

TEST(Cache, LineBaseMasksOffsets) {
  Cache c(small_cache());
  EXPECT_EQ(c.line_base(0x1234), 0x1220u);
  EXPECT_EQ(c.line_base(0x1220), 0x1220u);
}

TEST(Cache, ConfigValidation) {
  CacheConfig bad = small_cache();
  bad.line_bytes = 24;  // not a power of two
  EXPECT_THROW(Cache c(bad), util::CheckFailure);
  bad = small_cache();
  bad.size_bytes = 100;  // not divisible
  EXPECT_THROW(Cache c(bad), util::CheckFailure);
}

TEST(Cache, DoubleInstallIsChecked) {
  Cache c(small_cache());
  Cache::Victim v;
  c.install(0x1000, &v);
  EXPECT_THROW(c.install(0x1000, &v), util::CheckFailure);
}

// -- Snapshot and restore -----------------------------------------------------

// One step of a cache's history, replayable on a cache rebuilt from scratch.
struct Op {
  enum Kind { kInstall, kDirtyInstall, kLookup, kInval, kWbInval } kind;
  Addr addr;
  uint8_t fill = 0;
};

void apply(Cache& c, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    Cache::Victim v;
    std::vector<uint8_t> out;
    switch (op.kind) {
      case Op::kInstall:
      case Op::kDirtyInstall:
        if (c.peek(op.addr) != nullptr) c.inval_line(op.addr);
        std::memset(c.install(op.addr, &v), op.fill, c.line_bytes());
        if (op.kind == Op::kDirtyInstall) c.mark_dirty(op.addr);
        break;
      case Op::kLookup:
        c.lookup(op.addr);
        break;
      case Op::kInval:
        c.inval_line(op.addr);
        break;
      case Op::kWbInval:
        c.wbinval_line(op.addr, &out);
        break;
    }
  }
}

// Same observable state: counts, every line's presence, bytes and dirt, and
// the LRU order (the snapshot holds the stamps).
void expect_same(const Cache& got, const Cache& want, Addr lo, Addr hi) {
  EXPECT_EQ(got.valid_lines(), want.valid_lines());
  EXPECT_EQ(got.dirty_lines(), want.dirty_lines());
  for (Addr a = lo; a < hi; a += got.line_bytes()) {
    const uint8_t* g = got.peek(a);
    const uint8_t* w = want.peek(a);
    ASSERT_EQ(g == nullptr, w == nullptr) << "line " << a;
    if (g != nullptr) {
      EXPECT_EQ(std::memcmp(g, w, got.line_bytes()), 0) << "line " << a;
      EXPECT_EQ(got.dirty(a), want.dirty(a)) << "line " << a;
    }
  }
  const Cache::Snapshot gs = got.snapshot();
  const Cache::Snapshot ws = want.snapshot();
  EXPECT_EQ(gs.tick, ws.tick);
  EXPECT_EQ(gs.line_idx, ws.line_idx);
  ASSERT_EQ(gs.lines.size(), ws.lines.size());
  for (size_t i = 0; i < gs.lines.size(); ++i) {
    EXPECT_EQ(gs.lines[i].lru, ws.lines[i].lru) << "slot " << gs.line_idx[i];
  }
  EXPECT_EQ(gs.bytes, ws.bytes);
}

TEST(CacheSnapshot, RestoreAfterInvalidateReinstallAndEvict) {
  // 4 sets × 2 ways: lines 0x80 apart share a set.
  const std::vector<Op> prefix = {
      {Op::kInstall, 0x000, 1},      {Op::kDirtyInstall, 0x020, 2},
      {Op::kInstall, 0x080, 3},      {Op::kDirtyInstall, 0x040, 4},
      {Op::kLookup, 0x000},          {Op::kInval, 0x020},
  };
  const std::vector<Op> branch_a = {
      {Op::kInval, 0x000},           {Op::kWbInval, 0x020},
      {Op::kDirtyInstall, 0x000, 9},  // reinstalled with other bytes
      {Op::kInstall, 0x100, 5},       // evicts 0x080 from set 0
      {Op::kDirtyInstall, 0x0a0, 6},  // a set the prefix never used
      {Op::kInstall, 0x060, 7},
  };
  const std::vector<Op> branch_b = {
      {Op::kInstall, 0x180, 8},  // evicts 0x080 again, the other way round
      {Op::kInval, 0x040},
      {Op::kDirtyInstall, 0x0e0, 10},
      {Op::kInstall, 0x020, 11},  // back into the slot the prefix emptied
  };
  constexpr Addr kHi = 0x200;

  Cache c(small_cache());
  apply(c, prefix);
  const Cache::Snapshot at_prefix = c.snapshot();
  apply(c, branch_a);
  const Cache::Snapshot at_a = c.snapshot();
  apply(c, branch_b);

  // Back to the older snapshot: exactly the prefix's cache.
  c.restore(at_prefix);
  Cache fresh(small_cache());
  apply(fresh, prefix);
  expect_same(c, fresh, 0, kHi);

  // Then a different branch from there.
  apply(c, branch_b);
  apply(fresh, branch_b);
  expect_same(c, fresh, 0, kHi);

  // And forward to the snapshot of a branch this state never took.
  c.restore(at_a);
  Cache fresh_a(small_cache());
  apply(fresh_a, prefix);
  apply(fresh_a, branch_a);
  expect_same(c, fresh_a, 0, kHi);

  // The restored cache keeps behaving like the rebuilt one.
  apply(c, branch_b);
  apply(fresh_a, branch_b);
  expect_same(c, fresh_a, 0, kHi);
}

TEST(CacheSnapshot, ColdCacheSnapshotsEmptyAndRestoresEmpty) {
  Cache c(small_cache());
  const Cache::Snapshot cold = c.snapshot();
  EXPECT_TRUE(cold.line_idx.empty());
  apply(c, {{Op::kDirtyInstall, 0x000, 1}, {Op::kInstall, 0x080, 2}});
  c.restore(cold);
  expect_same(c, Cache(small_cache()), 0, 0x200);
}

TEST(CacheSnapshot, SnapshotIntoReusedBuffersMatchesAFreshOne) {
  Cache c(small_cache());
  apply(c, {{Op::kInstall, 0x000, 1}, {Op::kDirtyInstall, 0x020, 2},
            {Op::kInstall, 0x040, 3}});
  Cache::Snapshot reused = c.snapshot();
  apply(c, {{Op::kInval, 0x000}, {Op::kInval, 0x040}});
  c.snapshot(reused);  // fewer lines than the buffers hold
  const Cache::Snapshot fresh = c.snapshot();
  EXPECT_EQ(reused.line_idx, fresh.line_idx);
  EXPECT_EQ(reused.bytes, fresh.bytes);
  EXPECT_EQ(reused.tick, fresh.tick);
}

}  // namespace
}  // namespace pmc::sim
