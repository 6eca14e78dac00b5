// Property test: the reduced edge insertion of Execution computes the same
// reachability relations as the literal Table I implementation
// (NaiveExecution) on randomized well-formed programs, and its write-chain
// index gives the same Definition 11/12 answers (last-write and legal-source
// sets) as the literal definitions.
//
// The single documented divergence: Execution chains consecutive fences of a
// process (≺F) as a closure-preserving reduction, so pairs of same-process
// fences are excluded from the comparison (DESIGN.md §4).
#include <gtest/gtest.h>

#include <string>

#include "model/execution.h"
#include "util/rng.h"
#include "../support/naive_reference.h"

namespace pmc::model {
namespace {

using test_support::NaiveExecution;

struct ProgramMirror {
  Execution fast;
  NaiveExecution naive;
  std::vector<int> holder;  // lock holder per location, -1 = free

  ProgramMirror(int procs, int locs)
      : fast(procs, locs, std::vector<uint64_t>(locs, 0)),
        naive(procs, locs, std::vector<uint64_t>(locs, 0)),
        holder(locs, -1) {}
};

/// Issues `steps` random well-formed operations to both implementations.
/// With `locked_writes`, every write is made under the location's lock
/// (held already, or taken just for the write), so each location's writes
/// stay ≺G-chained; otherwise writes race and break the chain.
/// `at_read(p, v)` runs before every read and returns the source the read
/// is issued with.
template <typename AtRead>
void run_random_program(ProgramMirror& m, int procs, int locs, int steps,
                        uint64_t seed, bool locked_writes, AtRead at_read) {
  util::Rng rng(seed);
  uint64_t next_value = 1;
  for (int i = 0; i < steps; ++i) {
    const ProcId p = static_cast<ProcId>(rng.next_below(procs));
    const LocId v = static_cast<LocId>(rng.next_below(locs));
    switch (rng.next_below(6)) {
      case 0: {  // read (value is irrelevant for reachability)
        const OpId source = at_read(p, v);
        m.fast.read(p, v, 0, source);
        m.naive.read(p, v, 0, source);
        break;
      }
      case 1:
      case 2: {  // write
        const bool lock_now = locked_writes && m.holder[v] == -1;
        if (locked_writes && !lock_now && m.holder[v] != p) break;
        if (lock_now) {
          m.fast.acquire(p, v);
          m.naive.acquire(p, v);
        }
        m.fast.write(p, v, next_value);
        m.naive.write(p, v, next_value);
        ++next_value;
        if (lock_now) {
          m.fast.release(p, v);
          m.naive.release(p, v);
        }
        break;
      }
      case 3: {  // acquire, only when free (mutual exclusion)
        if (m.holder[v] != -1) break;
        m.fast.acquire(p, v);
        m.naive.acquire(p, v);
        m.holder[v] = p;
        break;
      }
      case 4: {  // release, only by the holder
        if (m.holder[v] != p) break;
        m.fast.release(p, v);
        m.naive.release(p, v);
        m.holder[v] = -1;
        break;
      }
      case 5: {
        m.fast.fence(p);
        m.naive.fence(p);
        break;
      }
    }
  }
}

bool same_proc_fences(const Operation& a, const Operation& b) {
  return a.is(OpKind::kFence) && b.is(OpKind::kFence) && a.proc == b.proc;
}

class NaiveEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NaiveEquivalence, ReachabilityMatchesOnRandomPrograms) {
  const uint64_t seed = GetParam();
  const int procs = 2 + static_cast<int>(seed % 2);
  const int locs = 2 + static_cast<int>(seed % 3);
  ProgramMirror m(procs, locs);
  run_random_program(m, procs, locs, /*steps=*/36, seed * 7919 + 1,
                     /*locked_writes=*/false,
                     [](ProcId, LocId) { return kNoOp; });

  ASSERT_EQ(m.fast.num_ops(), m.naive.num_ops());
  const OpId n = static_cast<OpId>(m.fast.num_ops());
  for (OpId a = 0; a < n; ++a) {
    for (OpId b = a + 1; b < n; ++b) {
      if (same_proc_fences(m.fast.op(a), m.fast.op(b))) continue;
      ASSERT_EQ(m.fast.hb_global(a, b), m.naive.hb_global(a, b))
          << "global " << m.fast.op(a).describe() << " vs "
          << m.fast.op(b).describe() << " seed=" << seed;
      for (ProcId p = 0; p < procs; ++p) {
        ASSERT_EQ(m.fast.hb_view(p, a, b), m.naive.hb_view(p, a, b))
            << "view p" << p << " " << m.fast.op(a).describe() << " vs "
            << m.fast.op(b).describe() << " seed=" << seed;
      }
    }
  }
  // The reduction must produce no more edges than the literal rules.
  EXPECT_LE(m.fast.num_edges(), m.naive.num_edges() + n);
}

/// Runs one random program, comparing W and the legal-source set of both
/// engines before every read; each read then returns a legal source picked
/// at random, so read monotonicity (Definition 12's second clause) narrows
/// later answers. Returns the number of locations whose writes ended up
/// unchained.
int compare_definition12(uint64_t seed, bool locked_writes) {
  const int procs = 2 + static_cast<int>(seed % 2);
  const int locs = 2 + static_cast<int>(seed % 3);
  ProgramMirror m(procs, locs);
  util::Rng pick(seed ^ 0x5eed);
  run_random_program(
      m, procs, locs, /*steps=*/48, seed * 104729 + 3, locked_writes,
      [&](ProcId p, LocId v) {
        const auto where = [&] {
          return "p" + std::to_string(p) + " v" + std::to_string(v) +
                 " after " + std::to_string(m.fast.num_ops()) +
                 " ops, seed=" + std::to_string(seed);
        };
        EXPECT_EQ(m.fast.last_writes_now(p, v),
                  m.naive.last_writes_now(p, v))
            << "W " << where();
        const auto legal = m.fast.legal_sources_now(p, v);
        EXPECT_EQ(legal, m.naive.legal_sources_now(p, v))
            << "legal sources " << where();
        if (legal.empty()) return kNoOp;
        return legal[pick.next_below(legal.size())];
      });
  int unchained = 0;
  for (LocId v = 0; v < locs; ++v) {
    const auto& ws = m.fast.writes_to(v);
    bool chained = true;
    for (size_t i = 1; i < ws.size(); ++i) {
      chained = chained && m.naive.hb_global(ws[i - 1], ws[i]);
    }
    unchained += chained ? 0 : 1;
  }
  return unchained;
}

TEST_P(NaiveEquivalence, Definition12MatchesWithRacingWrites) {
  compare_definition12(GetParam(), /*locked_writes=*/false);
}

TEST_P(NaiveEquivalence, Definition12MatchesWithLockedWrites) {
  EXPECT_EQ(compare_definition12(GetParam(), /*locked_writes=*/true), 0)
      << "locked writes must stay chained";
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveEquivalence,
                         ::testing::Range<uint64_t>(0, 40));

TEST(NaiveEquivalence, RacingWritesBreakTheChain) {
  // The racing-write programs must exercise the index's fallback scan.
  int unchained = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    unchained += compare_definition12(seed, /*locked_writes=*/false);
  }
  EXPECT_GT(unchained, 10);
}

TEST(NaiveExecution, MatchesHandComputedExample) {
  NaiveExecution e(2, 2, {0, 0});
  const OpId a = e.acquire(0, 0);
  const OpId w = e.write(0, 0, 1);
  const OpId r = e.release(0, 0);
  const OpId a2 = e.acquire(1, 0);
  EXPECT_TRUE(e.hb_global(a, w));
  EXPECT_TRUE(e.hb_global(w, r));
  EXPECT_TRUE(e.hb_global(r, a2));
  EXPECT_FALSE(e.hb_global(a2, a));
}

}  // namespace
}  // namespace pmc::model
