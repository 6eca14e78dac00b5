// Randomized lock-disciplined program generation (DESIGN.md §7).
//
// Promoted from tests/runtime/test_random_programs.cpp into a library so the
// differential fuzzer, the property tests and the CLI all draw from one
// generator. A generated program is:
//
//  * annotation-disciplined by construction — every store inside an
//    exclusive section of its object, sections LIFO, read-only sections for
//    observations — so it is legal input for every Table II back-end;
//  * deadlock-free — at most one exclusive section is held at a time
//    (read-only sections take no lock), and barriers are slot-aligned
//    across all cores;
//  * *determinate* — every update is a commutative addition whose operand
//    is fixed at generation time, so the final value of each object is the
//    closed form `initial + Σ addends` on every schedule of every back-end.
//    That closed form (expected_final) is what turns "run it everywhere
//    under every interleaving" into a differential oracle: any divergence,
//    on any back-end, under any schedule, is a bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/env.h"

namespace pmc::explore {

/// Seedable shape knobs of one generated program. Percentages select the op
/// kind per slot; what remains after ro/nested/compute/fence goes to plain
/// commutative updates. flush_pct applies within updates, barrier_pct per
/// slot boundary (global, so barriers stay aligned).
struct ProgramShape {
  uint64_t seed = 0;
  int cores = 3;
  int objects = 4;
  int steps = 6;  // op slots per core
  int flush_pct = 20;
  int barrier_pct = 10;
  int ro_pct = 20;
  int nested_pct = 10;
  int compute_pct = 15;
  int fence_pct = 5;

  friend bool operator==(const ProgramShape&, const ProgramShape&) = default;
};

struct GenOp {
  enum class Kind : uint8_t {
    kUpdate,    // entry_x; st += arg; [flush; st += arg2;] exit_x
    kReadOnly,  // entry_ro; ld (value discarded: a "slow read"); exit_ro
    kNested,    // entry_x(obj); entry_ro(obj2); ld obj2; st obj += arg; exit both
    kCompute,   // arg cycles of private work (no memory access)
    kFence,
    kBarrier,   // slot-aligned across every core
  };
  Kind kind = Kind::kUpdate;
  int obj = 0;
  int obj2 = 0;       // kNested: the read-only object (!= obj)
  uint32_t arg = 0;   // addend / compute cycles
  uint32_t arg2 = 0;  // kUpdate with flush: addend after the mid-section flush
  bool flush = false;

  friend bool operator==(const GenOp&, const GenOp&) = default;
};

struct GenProgram {
  ProgramShape shape;  // provenance, for repro lines
  std::vector<std::vector<GenOp>> threads;

  size_t ops() const;
  /// Initial value of object `obj` (matches the historical fuzz suite).
  static uint32_t initial_value(int obj) {
    return static_cast<uint32_t>(obj) * 1000u;
  }
  /// Closed-form final value of `obj`: initial plus every addend targeting
  /// it, exact on any schedule and any back-end (all updates commute).
  uint32_t expected_final(int obj) const;
  /// Removes thread `t`'s op `i` (for failure minimization). Dropping a
  /// barrier removes the *matching* barrier from every thread — barriers are
  /// slot-aligned, so the k-th barrier of each thread is the same barrier —
  /// keeping the program deadlock-free. Returns false when out of range.
  bool drop(int t, size_t i);

  friend bool operator==(const GenProgram& a, const GenProgram& b) {
    return a.threads == b.threads;
  }
};

GenProgram generate_program(const ProgramShape& shape);

/// Executes core env.id()'s op stream against `objs` (one ObjId per
/// generated object, creation order). The stream is fixed at generation
/// time, so what a core does is independent of the interleaving.
void run_ops(const GenProgram& prog, rt::Env& env,
             const std::vector<rt::ObjId>& objs);

std::string to_string(const GenOp& op);
/// Multi-line listing ("core 0: x3+=5 ...; barrier; ..."), for failure
/// reports of minimized programs.
std::string to_string(const GenProgram& prog);

/// The canonical shape the fuzz suites, the blind `fuzz_farm` scan and
/// `explore_litmus --fuzz-seed` derive from a bare seed: small core/step counts vary with the seed so the
/// schedule space stays explorable, densities stay at their defaults.
ProgramShape shape_for_seed(uint64_t seed);

}  // namespace pmc::explore
