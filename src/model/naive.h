// Literal, unreduced implementation of the Table I transition rules.
//
// Every issue scans *all* previously issued operations and adds every edge
// the table prescribes. It is O(n) per issue and O(n²) in edges — useful
// only as a reference oracle. tests/model/test_naive_equivalence.cpp checks
// that Execution (with its closure-preserving edge reduction and write-chain
// index) computes the same reachability relations and Definition 11/12 sets
// on randomized well-formed programs.
//
// Two deliberate deviations, mirrored in Execution (see DESIGN.md §4):
//  * initial operations are exempt from the fence column's ≺ℓ edges (they
//    would otherwise connect every location's init op to every fence);
//  * lock usage must be well-formed (paired acquire/release under mutual
//    exclusion) — the model leaves other usage undefined.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/op.h"

namespace pmc::model {

class NaiveExecution {
 public:
  NaiveExecution(int num_procs, int num_locs,
                 const std::vector<uint64_t>& initial = {});

  /// Issues a read; `source` is the write it returned (kNoOp: untracked).
  OpId read(ProcId p, LocId v, uint64_t value, OpId source = kNoOp);
  OpId write(ProcId p, LocId v, uint64_t value);
  OpId acquire(ProcId p, LocId v);
  OpId release(ProcId p, LocId v);
  OpId fence(ProcId p);

  size_t num_ops() const { return ops_.size(); }
  size_t num_edges() const { return num_edges_; }
  const Operation& op(OpId id) const { return ops_[id]; }

  bool hb_global(OpId a, OpId b) const;
  bool hb_view(ProcId p, OpId a, OpId b) const;

  /// Definition 11, literally: issue p's read of v on a copy of this
  /// execution, collect every write to v p-before it, and keep the maximal
  /// ones.
  std::vector<OpId> last_writes_now(ProcId p, LocId v) const;
  /// Definition 12, literally: every write to v p-after some element of
  /// last_writes_now(p, v) and p-after p's previous read source on v.
  std::vector<OpId> legal_sources_now(ProcId p, LocId v) const;

 private:
  OpId new_op(uint8_t kinds, ProcId p, LocId v, uint64_t value);
  void apply_table(OpId id);
  bool reachable(OpId a, OpId b, ProcId view) const;

  int num_procs_;
  int num_locs_;
  std::vector<Operation> ops_;
  std::vector<std::vector<Edge>> out_;
  size_t num_edges_ = 0;
};

}  // namespace pmc::model
