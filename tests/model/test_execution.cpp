// Unit tests for the Execution graph engine: Definitions 1–12.
#include "model/execution.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/check.h"

namespace pmc::model {
namespace {

TEST(Execution, InitializationCreatesInitOps) {
  // Definition 3: every location has one initial op that is write + release.
  Execution e(2, 3);
  EXPECT_EQ(e.num_ops(), 3u);
  for (LocId v = 0; v < 3; ++v) {
    const Operation& init = e.op(e.init_op(v));
    EXPECT_TRUE(init.is(OpKind::kWrite));
    EXPECT_TRUE(init.is(OpKind::kRelease));
    EXPECT_FALSE(init.is(OpKind::kRead));
    EXPECT_EQ(init.proc, kInitProc);
    EXPECT_EQ(init.value, kBottom);
    EXPECT_EQ(e.writes_to(v).size(), 1u);
  }
}

TEST(Execution, InitialValuesCanBeProvided) {
  Execution e(1, 2, {5, 7});
  EXPECT_EQ(e.op(e.init_op(0)).value, 5u);
  EXPECT_EQ(e.op(e.init_op(1)).value, 7u);
}

TEST(Execution, ReadsAlwaysHaveAPredecessor) {
  Execution e(1, 1);
  const OpId r = e.read(0, 0, kBottom);
  EXPECT_FALSE(e.in_edges(r).empty());
  EXPECT_EQ(e.in_edges(r).front().from, e.init_op(0));
}

TEST(Execution, ProgramOrderBetweenWrites) {
  // Fig. 2: two writes by one process to one location are ≺P ordered.
  Execution e(1, 1);
  const OpId w1 = e.write(0, 0, 1);
  const OpId w2 = e.write(0, 0, 2);
  EXPECT_TRUE(e.hb_global(w1, w2));
  EXPECT_TRUE(e.hb_global(e.init_op(0), w1));
  EXPECT_FALSE(e.hb_global(w2, w1));
}

TEST(Execution, LocalOrderOfReadsIsInvisibleGlobally) {
  // Fig. 3: w ≺ℓ r ≺ℓ w' — the read is ordered only in the executing
  // process's view.
  Execution e(2, 1);
  const OpId w1 = e.write(0, 0, 1);
  const OpId r = e.read(0, 0, 1, w1);
  const OpId w2 = e.write(0, 0, 2);
  EXPECT_TRUE(e.hb_view(0, w1, r));
  EXPECT_TRUE(e.hb_view(0, r, w2));
  EXPECT_FALSE(e.hb_global(w1, r));  // reads are never globally ordered
  EXPECT_FALSE(e.hb_global(r, w2));
  EXPECT_FALSE(e.hb_view(1, w1, r));  // other processes may disagree
  EXPECT_TRUE(e.hb_global(w1, w2));   // but ≺P stands for everyone
}

TEST(Execution, WritesOfDifferentLocationsAreUnordered) {
  Execution e(1, 2);
  const OpId wx = e.write(0, 0, 1);
  const OpId wy = e.write(0, 1, 1);
  EXPECT_FALSE(e.hb_global(wx, wy));
  EXPECT_FALSE(e.hb_view(0, wx, wy));
}

TEST(Execution, FenceOrdersWritesAcrossLocations) {
  // w(x) ≺ℓ F ≺F w(y): the x-write is before the y-write in the local view,
  // and the fence-to-write edge is global.
  Execution e(1, 2);
  const OpId wx = e.write(0, 0, 1);
  const OpId f = e.fence(0);
  const OpId wy = e.write(0, 1, 1);
  EXPECT_TRUE(e.hb_view(0, wx, wy));
  EXPECT_TRUE(e.hb_global(f, wy));
  // w→F is only ≺ℓ (Table I), so the chain is not globally visible.
  EXPECT_FALSE(e.hb_global(wx, wy));
}

TEST(Execution, ReleaseAcquireSynchronizesAcrossProcesses) {
  Execution e(2, 1);
  const OpId a0 = e.acquire(0, 0);
  const OpId w = e.write(0, 0, 42);
  const OpId r0 = e.release(0, 0);
  const OpId a1 = e.acquire(1, 0);
  EXPECT_TRUE(e.hb_global(a0, w));
  EXPECT_TRUE(e.hb_global(w, r0));
  EXPECT_TRUE(e.hb_global(r0, a1));
  EXPECT_TRUE(e.hb_global(w, a1));  // transitively
}

TEST(Execution, AcquireSyncsWithReleasesOfAnyProcess) {
  // The † footnote of Table I: ≺S is on (R, ∗, v, ∗).
  Execution e(3, 1);
  e.acquire(1, 0);
  const OpId rel1 = e.release(1, 0);
  const OpId a2 = e.acquire(2, 0);
  EXPECT_TRUE(e.hb_global(rel1, a2));
}

TEST(Execution, InitialOpActsAsRelease) {
  // Fig. 4 shows init ≺S acq for the first acquire.
  Execution e(1, 1);
  const OpId a = e.acquire(0, 0);
  EXPECT_TRUE(e.hb_global(e.init_op(0), a));
  bool sync_edge = false;
  for (const Edge& edge : e.in_edges(a)) {
    sync_edge |= edge.kind == EdgeKind::kSync;
  }
  EXPECT_TRUE(sync_edge);
}

TEST(Execution, ReadDoesNotOrderBeforeAcquire) {
  // Table I r→A is blank: this is why Fig. 5 needs the fence at line 11.
  Execution e(1, 2);
  const OpId r = e.read(0, 1, kBottom);
  const OpId a = e.acquire(0, 0);
  EXPECT_FALSE(e.hb_view(0, r, a));
  EXPECT_FALSE(e.hb_global(r, a));
}

TEST(Execution, FencePinsAcquireBehindRead) {
  Execution e(1, 2);
  const OpId r = e.read(0, 1, kBottom);
  const OpId f = e.fence(0);
  const OpId a = e.acquire(0, 0);
  EXPECT_TRUE(e.hb_view(0, r, f));
  EXPECT_TRUE(e.hb_global(f, a));
  EXPECT_TRUE(e.hb_view(0, r, a));
}

TEST(Execution, SuccessiveReadsAreLocallyOrdered) {
  Execution e(1, 1);
  const OpId r1 = e.read(0, 0, kBottom);
  const OpId r2 = e.read(0, 0, kBottom);
  EXPECT_TRUE(e.hb_view(0, r1, r2));
  EXPECT_FALSE(e.hb_global(r1, r2));
}

TEST(Execution, LastWritesSingleWriterChain) {
  Execution e(1, 1);
  e.write(0, 0, 1);
  const OpId w2 = e.write(0, 0, 2);
  const auto w = e.last_writes_now(0, 0);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], w2);
}

TEST(Execution, LastWritesSeesThroughSynchronization) {
  Execution e(2, 1);
  e.acquire(0, 0);
  const OpId w = e.write(0, 0, 42);
  e.release(0, 0);
  e.acquire(1, 0);
  const auto lw = e.last_writes_now(1, 0);
  ASSERT_EQ(lw.size(), 1u);
  EXPECT_EQ(lw[0], w);
}

TEST(Execution, UnsynchronizedWriteIsNotInFrontierButIsLegal) {
  // Definition 12: the frontier stays at init, but the newer value may be
  // returned ("or any value that is written afterwards").
  Execution e(2, 1);
  const OpId w = e.write(0, 0, 42);
  const auto frontier = e.last_writes_now(1, 0);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0], e.init_op(0));
  const auto legal = e.legal_sources_now(1, 0);
  ASSERT_EQ(legal.size(), 2u);
  EXPECT_EQ(legal[0], e.init_op(0));
  EXPECT_EQ(legal[1], w);
}

TEST(Execution, ReadMonotonicityRestrictsSources) {
  // After reading the new value, the old one is no longer legal.
  Execution e(2, 1);
  const OpId w = e.write(0, 0, 42);
  e.read(1, 0, 42, w);
  const auto legal = e.legal_sources_now(1, 0);
  ASSERT_EQ(legal.size(), 1u);
  EXPECT_EQ(legal[0], w);
}

TEST(Execution, ReadMonotonicityViolationThrows) {
  Execution e(2, 1);
  const OpId w = e.write(0, 0, 42);
  e.read(1, 0, 42, w);
  EXPECT_THROW(e.read(1, 0, kBottom, e.init_op(0)), util::CheckFailure);
}

TEST(Execution, RacyReadHasMultipleLastWrites) {
  // A plain write by p plus a locked write by q both reach p's read after it
  // acquires, but are mutually unordered: |W_o| = 2 (Definition 11).
  Execution e(2, 1);
  const OpId w_plain = e.write(0, 0, 1);
  e.acquire(1, 0);
  const OpId w_locked = e.write(1, 0, 2);
  e.release(1, 0);
  e.acquire(0, 0);
  const OpId r = e.read(0, 0, 2, w_locked);
  const auto w = e.last_writes(r);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_TRUE(e.is_racy_read(r));
  const auto racy = e.unordered_write_pairs(0);
  ASSERT_EQ(racy.size(), 1u);
  EXPECT_EQ(racy[0].first, w_plain);
  EXPECT_EQ(racy[0].second, w_locked);
}

TEST(Execution, WriteChainedTracksTheNewestPair) {
  // write_chained(v) must stay exact after the chain breaks.
  Execution e(2, 1, {0});
  e.write(0, 0, 1);
  EXPECT_TRUE(e.write_chained(0));
  e.write(1, 0, 2);  // unordered with p0's write
  EXPECT_FALSE(e.write_chained(0));
  e.write(1, 0, 3);  // ≺P after p1's previous write
  EXPECT_TRUE(e.write_chained(0));
  e.write(0, 0, 4);  // ≺P after p0's write, not after p1's
  EXPECT_FALSE(e.write_chained(0));
}

TEST(Execution, LockedWritersAreTotallyOrdered) {
  Execution e(2, 1);
  for (ProcId p : {0, 1, 0, 1}) {
    e.acquire(p, 0);
    e.write(p, 0, static_cast<uint64_t>(p));
    e.release(p, 0);
  }
  EXPECT_TRUE(e.unordered_write_pairs(0).empty());
}

TEST(Execution, DescribeAndDotRender) {
  Execution e(1, 1, {0});
  e.acquire(0, 0);
  e.write(0, 0, 9);
  e.release(0, 0);
  const std::string dot = e.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("W v0=9"), std::string::npos);
  EXPECT_NE(dot.find("sync"), std::string::npos);
  EXPECT_EQ(e.op(1).describe(), "#1 p0 acq v0");
}

TEST(Execution, Fig5DotIsStable) {
  // The Fig. 5 execution in its depicted interleaving (as explore_litmus
  // --dot draws it). Edges are listed by source op, then insertion order.
  Execution e(2, 2, {0, 0});
  e.acquire(0, 0);
  const OpId wx = e.write(0, 0, 42);
  e.fence(0);
  e.release(0, 0);
  e.acquire(0, 1);
  const OpId wf = e.write(0, 1, 1);
  e.release(0, 1);
  e.read(1, 1, 1, wf);
  e.fence(1);
  e.acquire(1, 0);
  e.read(1, 0, 42, wx);
  e.release(1, 0);
  EXPECT_EQ(e.to_dot(), R"(digraph pmc {
  rankdir=TB;
  node [shape=box,fontname="mono"];
  n0 [label="#0 p* W+rel v0=0"];
  n1 [label="#1 p* W+rel v1=0"];
  n2 [label="#2 p0 acq v0"];
  n3 [label="#3 p0 W v0=42"];
  n4 [label="#4 p0 fence"];
  n5 [label="#5 p0 rel v0"];
  n6 [label="#6 p0 acq v1"];
  n7 [label="#7 p0 W v1=1"];
  n8 [label="#8 p0 rel v1"];
  n9 [label="#9 p1 R v1=1"];
  n10 [label="#10 p1 fence"];
  n11 [label="#11 p1 acq v0"];
  n12 [label="#12 p1 R v0=42"];
  n13 [label="#13 p1 rel v0"];
  n0 -> n2 [style=solid,color=blue,label="sync"];
  n0 -> n3 [style=solid,color=black,label="program"];
  n0 -> n12 [style=dashed,color=gray40,label="local"];
  n0 -> n13 [style=solid,color=black,label="program"];
  n1 -> n6 [style=solid,color=blue,label="sync"];
  n1 -> n7 [style=solid,color=black,label="program"];
  n1 -> n9 [style=dashed,color=gray40,label="local"];
  n2 -> n3 [style=solid,color=black,label="program"];
  n2 -> n4 [style=solid,color=red,label="fence"];
  n3 -> n4 [style=dashed,color=gray40,label="local"];
  n3 -> n5 [style=solid,color=black,label="program"];
  n4 -> n5 [style=solid,color=red,label="fence"];
  n4 -> n6 [style=solid,color=red,label="fence"];
  n5 -> n11 [style=solid,color=blue,label="sync"];
  n6 -> n7 [style=solid,color=black,label="program"];
  n7 -> n8 [style=solid,color=black,label="program"];
  n9 -> n10 [style=dashed,color=gray40,label="local"];
  n10 -> n11 [style=solid,color=red,label="fence"];
  n11 -> n12 [style=dashed,color=gray40,label="local"];
  n11 -> n13 [style=solid,color=black,label="program"];
  n12 -> n13 [style=dashed,color=gray40,label="local"];
}
)");
}

TEST(Execution, ConstQueriesRunOnSeveralThreads) {
  // The search scratch is per thread, so threads may query one graph at
  // once and get the answers one thread gets.
  Execution e(3, 2, {0, 0});
  for (int round = 0; round < 40; ++round) {
    for (ProcId p = 0; p < 3; ++p) {
      const LocId v = round % 2;
      e.acquire(p, v);
      e.write(p, v, static_cast<uint64_t>(round * 3 + p));
      e.release(p, v);
      e.read(p, 1 - v, 0);
    }
  }
  const auto answers = [&e] {
    std::vector<size_t> out;
    const OpId n = static_cast<OpId>(e.num_ops());
    for (OpId a = 0; a < n; a += 7) {
      for (OpId b = a; b < n; b += 5) out.push_back(e.hb_view(0, a, b));
    }
    for (ProcId p = 0; p < 3; ++p) {
      for (LocId v = 0; v < 2; ++v) {
        out.push_back(e.legal_sources_now(p, v).size());
      }
    }
    return out;
  };
  const auto expected = answers();
  std::vector<std::vector<size_t>> got(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&got, &answers, i] { got[i] = answers(); });
  }
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g, expected);
}

TEST(Execution, BoundsAreChecked) {
  Execution e(1, 1);
  EXPECT_THROW(e.op(99), util::CheckFailure);
  EXPECT_THROW(e.read(0, 5, 0), util::CheckFailure);
  EXPECT_THROW(e.write(2, 0, 0), util::CheckFailure);
}

}  // namespace
}  // namespace pmc::model
