// Literal, unreduced implementation of the Table I transition rules, as the
// test-side reference for Execution (DESIGN.md §4).
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
#include <vector>

#include "model/op.h"
#include "model/table1.h"
#include "util/check.h"

namespace pmc::test_support {

using model::Edge;
using model::EdgeKind;
using model::LocId;
using model::OpId;
using model::OpKind;
using model::Operation;
using model::ProcId;

class NaiveExecution {
 public:
  /// Takes `num_procs` only to mirror Execution; no rule needs the count.
  NaiveExecution(int /*num_procs*/, int num_locs,
                 const std::vector<uint64_t>& initial = {}) {
    PMC_CHECK(initial.empty() ||
              initial.size() == static_cast<size_t>(num_locs));
    for (LocId v = 0; v < num_locs; ++v) {
      const uint64_t val = initial.empty() ? model::kBottom : initial[v];
      new_op(kind_bit(OpKind::kWrite) | kind_bit(OpKind::kRelease),
             model::kInitProc, v, val);
    }
  }

  /// Issues a read; `source` is the write it returned (kNoOp: untracked).
  OpId read(ProcId p, LocId v, uint64_t value, OpId source = model::kNoOp) {
    const OpId id = new_op(kind_bit(OpKind::kRead), p, v, value);
    ops_[id].source = source;
    apply_table(id);
    return id;
  }
  OpId write(ProcId p, LocId v, uint64_t value) {
    return issue(kind_bit(OpKind::kWrite), p, v, value);
  }
  OpId acquire(ProcId p, LocId v) {
    return issue(kind_bit(OpKind::kAcquire), p, v, 0);
  }
  OpId release(ProcId p, LocId v) {
    return issue(kind_bit(OpKind::kRelease), p, v, 0);
  }
  OpId fence(ProcId p) {
    return issue(kind_bit(OpKind::kFence), p, model::kAnyLoc, 0);
  }

  size_t num_ops() const { return ops_.size(); }
  size_t num_edges() const { return num_edges_; }
  const Operation& op(OpId id) const { return ops_[id]; }

  bool hb_global(OpId a, OpId b) const {
    return reachable(a, b, model::kAnyProc);
  }
  bool hb_view(ProcId p, OpId a, OpId b) const { return reachable(a, b, p); }

  /// Definition 11, literally: issue p's read of v on a copy of this
  /// execution, collect every write to v p-before it, and keep the maximal
  /// ones.
  std::vector<OpId> last_writes_now(ProcId p, LocId v) const {
    NaiveExecution probe = *this;
    const OpId o = probe.read(p, v, 0);
    std::vector<OpId> before;
    for (OpId a = 0; a < o; ++a) {
      if (ops_[a].is(OpKind::kWrite) && ops_[a].loc == v &&
          probe.hb_view(p, a, o)) {
        before.push_back(a);
      }
    }
    std::vector<OpId> maximal;
    for (OpId a : before) {
      bool dominated = false;
      for (OpId b : before) dominated |= hb_view(p, a, b);
      if (!dominated) maximal.push_back(a);
    }
    return maximal;
  }

  /// Definition 12, literally: every write to v p-after some element of
  /// last_writes_now(p, v) and p-after p's previous read source on v.
  std::vector<OpId> legal_sources_now(ProcId p, LocId v) const {
    const std::vector<OpId> frontier = last_writes_now(p, v);
    OpId last_src = model::kNoOp;
    for (const Operation& o : ops_) {
      if (o.is(OpKind::kRead) && o.proc == p && o.loc == v &&
          o.source != model::kNoOp) {
        last_src = o.source;
      }
    }
    const auto p_eq = [&](OpId a, OpId b) {
      return a == b || hb_view(p, a, b);
    };
    std::vector<OpId> legal;
    for (const Operation& b : ops_) {
      if (!b.is(OpKind::kWrite) || b.loc != v) continue;
      bool after_frontier = false;
      for (OpId a : frontier) after_frontier |= p_eq(a, b.id);
      if (after_frontier && (last_src == model::kNoOp || p_eq(last_src, b.id))) {
        legal.push_back(b.id);
      }
    }
    return legal;
  }

 private:
  OpId new_op(uint8_t kinds, ProcId p, LocId v, uint64_t value) {
    Operation o;
    o.id = static_cast<OpId>(ops_.size());
    o.kinds = kinds;
    o.proc = p;
    o.loc = v;
    o.value = value;
    ops_.push_back(o);
    out_.emplace_back();
    return o.id;
  }

  OpId issue(uint8_t kinds, ProcId p, LocId v, uint64_t value) {
    const OpId id = new_op(kinds, p, v, value);
    apply_table(id);
    return id;
  }

  void apply_table(OpId id) {
    const Operation& n = ops_[id];
    OpKind nk = OpKind::kRead;
    for (OpKind k : {OpKind::kRead, OpKind::kWrite, OpKind::kAcquire,
                     OpKind::kRelease, OpKind::kFence}) {
      if (n.is(k)) nk = k;
    }
    for (OpId a = 0; a < id; ++a) {
      const Operation& old = ops_[a];
      const bool old_is_init = old.proc == model::kInitProc;
      // Each kind the old op carries gets its own row (the init op is both a
      // write and a release).
      for (OpKind ok : {OpKind::kRead, OpKind::kWrite, OpKind::kAcquire,
                        OpKind::kRelease, OpKind::kFence}) {
        if (!old.is(ok)) continue;
        // Deviation: init ops are exempt from the fence column.
        if (old_is_init && nk == OpKind::kFence) continue;
        const auto kind = model::table1_edge(ok, old.loc, nk, n.loc);
        if (!kind) continue;
        // Process patterns: ≺S spans processes; everything else is same-proc
        // (the ⋆ init process matches every process).
        if (*kind != EdgeKind::kSync && !old.matches_proc(n.proc)) continue;
        Edge e;
        e.from = a;
        e.to = id;
        e.kind = *kind;
        if (*kind == EdgeKind::kLocal) {
          e.owner = old_is_init ? n.proc : old.proc;
        }
        out_[a].push_back(e);
        ++num_edges_;
      }
    }
  }

  bool reachable(OpId a, OpId b, ProcId view) const {
    if (a >= b) return false;
    std::vector<OpId> stack{a};
    std::vector<char> seen(ops_.size(), 0);
    seen[a] = 1;
    while (!stack.empty()) {
      const OpId cur = stack.back();
      stack.pop_back();
      for (const Edge& e : out_[cur]) {
        if (e.kind == EdgeKind::kLocal && view != e.owner) continue;
        if (e.to == b) return true;
        if (e.to > b || seen[e.to]) continue;
        seen[e.to] = 1;
        stack.push_back(e.to);
      }
    }
    return false;
  }

  std::vector<Operation> ops_;
  std::vector<std::vector<Edge>> out_;
  size_t num_edges_ = 0;
};

}  // namespace pmc::test_support
