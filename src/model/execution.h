// Execution graphs of the PMC memory model (paper Definitions 1–12).
//
// An Execution is the state E = (P, V, O, ≺) of a program at one moment in
// time. Operations are issued one at a time; each issue applies the ordering
// rules of Table I against the already-issued operations and extends the
// partial order. Edges always point from older to newer operations, so the
// graph is a DAG topologically sorted by OpId.
//
// Edge insertion uses a closure-preserving reduction (only non-dominated
// predecessors receive explicit edges); `tests/model/test_naive_equivalence`
// property-checks it against the unreduced NaiveExecution
// (`tests/support/naive_reference.h`) on random programs.
//
// Storage (DESIGN.md §4): every in-edge of an op is added when the op is
// issued, so all edges live in one vector grouped by target op. Per
// location, a write-chain index records how long the issue-order prefix of
// writes stays totally ≺G-ordered; Definition 11/12 queries on a location
// whose writes are all in the chain need one search instead of a scan.
//
// Threads: the reachability search keeps its visit buffer and stack in a
// thread-local scratch reused by every search, so a search allocates
// nothing once the buffer has grown, a copy of a graph copies no scratch,
// and const queries may run on several threads at once. Issuing an op
// mutates the graph, so it must not race with any other use; every user
// keeps its Execution confined to one thread.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/op.h"

namespace pmc::model {

/// The execution graph E = (P, V, O, ≺).
class Execution {
 public:
  /// Creates an initialized execution (Definition 3): every location gets an
  /// initial operation that is both a write and a release, by the ⋆ process,
  /// with value ⊥ (or `initial[v]` when provided).
  Execution(int num_procs, int num_locs,
            const std::vector<uint64_t>& initial = {});

  int num_procs() const { return num_procs_; }
  int num_locs() const { return num_locs_; }
  size_t num_ops() const { return ops_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const Operation& op(OpId id) const;
  OpId init_op(LocId v) const;
  /// The edges into `id`, in insertion order. The view is valid until the
  /// next op is issued.
  std::span<const Edge> in_edges(OpId id) const;

  // -- Issuing operations (Definition 4 state transitions) ------------------

  /// Issues a read returning the value of write `source` (kNoOp to record an
  /// unvalidated value). Checks read monotonicity (Def. 12, second clause)
  /// when the source is known; returns the new op id.
  OpId read(ProcId p, LocId v, uint64_t value, OpId source = kNoOp);
  OpId write(ProcId p, LocId v, uint64_t value);
  OpId acquire(ProcId p, LocId v);
  OpId release(ProcId p, LocId v);
  OpId fence(ProcId p);

  // -- Ordering queries ------------------------------------------------------

  /// a ≺G b: path of globally visible edges only (Definition 9).
  bool hb_global(OpId a, OpId b) const;
  /// a p≺ b: path of global plus p-local edges (Definition 10).
  bool hb_view(ProcId p, OpId a, OpId b) const;
  /// Reflexive version, a p⪯ b.
  bool hb_view_eq(ProcId p, OpId a, OpId b) const {
    return a == b || hb_view(p, a, b);
  }

  // -- Definition 11/12 machinery --------------------------------------------

  /// The last-write set W_o of an issued operation `o` (Definition 11),
  /// evaluated in the view of o's process.
  std::vector<OpId> last_writes(OpId o) const;

  /// The last-write set of a *hypothetical* read that process p would issue
  /// on location v now.
  std::vector<OpId> last_writes_now(ProcId p, LocId v) const;

  /// Legal source writes for a read that p would issue on v now
  /// (Definition 12): writes b with a p⪯ b for some a ∈ W, filtered by read
  /// monotonicity against p's previous read of v.
  std::vector<OpId> legal_sources_now(ProcId p, LocId v) const;

  /// True iff the issued read `o` was a data race (|W_o| > 1, Definition 11).
  bool is_racy_read(OpId o) const { return last_writes(o).size() > 1; }

  /// All pairs of globally unordered writes to v (write/write races).
  std::vector<std::pair<OpId, OpId>> unordered_write_pairs(LocId v) const;

  /// All writes to location v, in issue order (the initial op is first).
  const std::vector<OpId>& writes_to(LocId v) const;

  /// True iff the newest write to v is ≺G-after the write issued before it
  /// (trivially true while the initial op is the only write). Read from the
  /// write-chain index while v's writes are totally ordered.
  bool write_chained(LocId v) const;

  /// The source of the last read p issued on v (kNoOp if none/untracked).
  OpId last_read_source(ProcId p, LocId v) const;

  /// Graphviz rendering, for documentation and the litmus explorer. Edges
  /// are listed by source op, then in insertion order.
  std::string to_dot() const;

  /// Appends to `key` an exact encoding of everything later issues and the
  /// Definition 11/12 queries read, with op `id` renamed to `name[id]`
  /// (DESIGN.md §4): the op names, each op's sorted in-edge source names,
  /// and the per-process bookkeeping. A name must determine its op's
  /// process, location and kinds and a write's value; edge kinds and owners,
  /// the release frontier and the issue order of a process's ops follow from
  /// those and the graph. A read's value and source are left out: later
  /// issues read only the newest source per process and location, which the
  /// bookkeeping holds. Issue-order indices (the order of a location's
  /// writes, the write chain) are left out: every query answers from them
  /// what the general scan answers.
  void append_canonical(std::span<const uint16_t> name, std::string& key) const;

 private:
  struct ProcLocState {
    OpId last_write = kNoOp;    // latest (w, p, v, ·) — starts at the init op
    OpId last_acquire = kNoOp;  // latest (A, p, v, ·)
    OpId last_read = kNoOp;     // latest (r, p, v, ·) — reads chain via ≺ℓ
    OpId last_sync = kNoOp;     // latest acquire-or-release, for fence edges
    OpId last_read_source = kNoOp;
  };
  struct ProcState {
    OpId last_fence = kNoOp;
    std::vector<LocId> dirty_since_fence;  // locations touched since last fence
  };

  ProcLocState& pls(ProcId p, LocId v);
  const ProcLocState& pls(ProcId p, LocId v) const;
  void touch(ProcId p, LocId v);
  OpId new_op(uint8_t kinds, ProcId p, LocId v, uint64_t value);
  void add_edge(OpId from, OpId to, EdgeKind kind);
  /// DFS backwards from b towards a over edges visible in `view`
  /// (kAnyProc = global).
  bool reachable(OpId a, OpId b, ProcId view) const;
  /// Number of v's writes older than `upper` when all of them are in the
  /// write chain; 0 when the chain does not cover them.
  size_t chained_prefix(LocId v, OpId upper) const;
  std::vector<OpId> last_writes_impl(ProcId p, const std::vector<OpId>& preds,
                                     LocId v, OpId upper) const;

  int num_procs_;
  int num_locs_;
  std::vector<Operation> ops_;
  std::vector<Edge> edges_;       // grouped by target op, insertion order
  std::vector<uint32_t> in_begin_;  // [id]..[id + 1]: id's range in edges_
  std::vector<OpId> init_;                       // per location
  std::vector<std::vector<OpId>> writes_;        // per location, issue order
  /// Per location: length of the prefix of writes_[v] in which each write
  /// is ≺G the next. A path between two issued ops only passes through ops
  /// between them, whose in-edges already exist, so the fact never changes.
  std::vector<uint32_t> chain_len_;
  std::vector<std::vector<OpId>> release_frontier_;  // per location
  std::vector<ProcLocState> pls_;                // [p * num_locs + v]
  std::vector<ProcState> ps_;
};

}  // namespace pmc::model
