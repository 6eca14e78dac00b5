#include "model/naive.h"

#include "model/table1.h"
#include "util/check.h"

namespace pmc::model {

NaiveExecution::NaiveExecution(int num_procs, int num_locs,
                               const std::vector<uint64_t>& initial)
    : num_procs_(num_procs), num_locs_(num_locs) {
  PMC_CHECK(initial.empty() || initial.size() == static_cast<size_t>(num_locs));
  for (LocId v = 0; v < num_locs_; ++v) {
    const uint64_t val = initial.empty() ? kBottom : initial[v];
    new_op(kind_bit(OpKind::kWrite) | kind_bit(OpKind::kRelease), kInitProc, v,
           val);
  }
}

OpId NaiveExecution::new_op(uint8_t kinds, ProcId p, LocId v, uint64_t value) {
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

void NaiveExecution::apply_table(OpId id) {
  const Operation& n = ops_[id];
  OpKind nk = OpKind::kRead;
  for (OpKind k : {OpKind::kRead, OpKind::kWrite, OpKind::kAcquire,
                   OpKind::kRelease, OpKind::kFence}) {
    if (n.is(k)) nk = k;
  }
  for (OpId a = 0; a < id; ++a) {
    const Operation& old = ops_[a];
    const bool old_is_init = old.proc == kInitProc;
    // Each kind the old op carries gets its own row (the init op is both a
    // write and a release).
    for (OpKind ok : {OpKind::kRead, OpKind::kWrite, OpKind::kAcquire,
                      OpKind::kRelease, OpKind::kFence}) {
      if (!old.is(ok)) continue;
      // Deviation: init ops are exempt from the fence column.
      if (old_is_init && nk == OpKind::kFence) continue;
      const auto kind = table1_edge(ok, old.loc, nk, n.loc);
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

OpId NaiveExecution::read(ProcId p, LocId v, uint64_t value, OpId source) {
  const OpId id = new_op(kind_bit(OpKind::kRead), p, v, value);
  ops_[id].source = source;
  apply_table(id);
  return id;
}

OpId NaiveExecution::write(ProcId p, LocId v, uint64_t value) {
  const OpId id = new_op(kind_bit(OpKind::kWrite), p, v, value);
  apply_table(id);
  return id;
}

OpId NaiveExecution::acquire(ProcId p, LocId v) {
  const OpId id = new_op(kind_bit(OpKind::kAcquire), p, v, 0);
  apply_table(id);
  return id;
}

OpId NaiveExecution::release(ProcId p, LocId v) {
  const OpId id = new_op(kind_bit(OpKind::kRelease), p, v, 0);
  apply_table(id);
  return id;
}

OpId NaiveExecution::fence(ProcId p) {
  const OpId id = new_op(kind_bit(OpKind::kFence), p, /*loc=*/kAnyLoc, 0);
  apply_table(id);
  return id;
}

bool NaiveExecution::reachable(OpId a, OpId b, ProcId view) const {
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

bool NaiveExecution::hb_global(OpId a, OpId b) const {
  return reachable(a, b, kAnyProc);
}

bool NaiveExecution::hb_view(ProcId p, OpId a, OpId b) const {
  return reachable(a, b, p);
}

std::vector<OpId> NaiveExecution::last_writes_now(ProcId p, LocId v) const {
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

std::vector<OpId> NaiveExecution::legal_sources_now(ProcId p, LocId v) const {
  const std::vector<OpId> frontier = last_writes_now(p, v);
  OpId last_src = kNoOp;
  for (const Operation& o : ops_) {
    if (o.is(OpKind::kRead) && o.proc == p && o.loc == v &&
        o.source != kNoOp) {
      last_src = o.source;
    }
  }
  const auto p_eq = [&](OpId a, OpId b) { return a == b || hb_view(p, a, b); };
  std::vector<OpId> legal;
  for (const Operation& b : ops_) {
    if (!b.is(OpKind::kWrite) || b.loc != v) continue;
    bool after_frontier = false;
    for (OpId a : frontier) after_frontier |= p_eq(a, b.id);
    if (after_frontier && (last_src == kNoOp || p_eq(last_src, b.id))) {
      legal.push_back(b.id);
    }
  }
  return legal;
}

}  // namespace pmc::model
