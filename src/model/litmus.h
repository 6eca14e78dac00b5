// Litmus-test enumeration over the PMC model.
//
// A LitmusTest is a tiny multi-threaded program over model operations. The
// engine explores every interleaving (and, in weak-issue mode, every
// reordering Table I permits) and every legal read value per Definition 12,
// returning the set of reachable final register states.
//
// The search is memoized (DESIGN.md §4): interleavings that reach the same
// state, up to renaming ops by (thread, program index) instead of issue
// order, are expanded once. The visited set is local to one explore() call
// and is freed when it returns. tests/support/litmus_reference.h keeps the
// unreduced path-by-path search that the tests compare it with.
//
// Weak-issue mode models what the paper's annotations are *for*: a compiler
// or out-of-order processor may issue an instruction early unless Table I
// orders it behind a pending earlier instruction. The classic demonstration
// is Fig. 5: without the fence at line 11, the acquire may hoist above the
// poll loop (read→acquire is blank in Table I) and the stale read appears.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "model/op.h"

namespace pmc::model {

struct LitmusOp {
  enum class Kind : uint8_t { kLoad, kLoadUntil, kStore, kAcquire, kRelease, kFence };
  Kind kind = Kind::kFence;
  LocId loc = -1;
  uint64_t value = 0;  // store value / LoadUntil target
  int reg = -1;        // load destination

  static LitmusOp load(LocId v, int reg) { return {Kind::kLoad, v, 0, reg}; }
  /// Spins until location v reads `target` (models a poll loop).
  static LitmusOp load_until(LocId v, uint64_t target) {
    return {Kind::kLoadUntil, v, target, -1};
  }
  static LitmusOp store(LocId v, uint64_t value) {
    return {Kind::kStore, v, value, -1};
  }
  static LitmusOp acquire(LocId v) { return {Kind::kAcquire, v, 0, -1}; }
  static LitmusOp release(LocId v) { return {Kind::kRelease, v, 0, -1}; }
  static LitmusOp fence() { return {Kind::kFence, -1, 0, -1}; }

  /// The model operation kind this instruction issues.
  OpKind op_kind() const;
};

struct LitmusThread {
  std::vector<LitmusOp> ops;
};

struct LitmusTest {
  std::string name;
  int num_locs = 0;
  int num_regs = 0;
  std::vector<uint64_t> initial;  // empty = all zero
  std::vector<LitmusThread> threads;
};

enum class IssueMode {
  kProgramOrder,  // instructions issue in program order (in-order core)
  kWeakIssue,     // instructions may reorder unless Table I orders them
};

struct ExploreOptions {
  IssueMode mode = IssueMode::kProgramOrder;
  /// Lookahead window for weak-issue reordering.
  int weak_window = 3;
  /// Stop after expanding this many distinct states (sets `truncated`).
  size_t max_states = 5'000'000;
};

/// A final register state, indexed by LitmusOp::reg.
using Outcome = std::vector<uint64_t>;

struct ExploreResult {
  std::set<Outcome> outcomes;
  size_t states = 0;       // distinct states expanded
  bool stuck = false;      // some state can issue nothing but is not done
  bool truncated = false;  // max_states hit
  bool race_observed = false;  // some read had |W_o| > 1 on some path
};

ExploreResult explore(const LitmusTest& test, const ExploreOptions& opts = {});

/// Convenience: is `outcome` among the reachable outcomes of `test`?
bool outcome_allowed(const LitmusTest& test, const Outcome& outcome,
                     const ExploreOptions& opts = {});

}  // namespace pmc::model
