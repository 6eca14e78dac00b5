// The unreduced litmus enumeration as the test-side reference for
// model::explore (DESIGN.md §4). It walks every interleaving (and, in
// weak-issue mode, every reordering Table I permits) and copies the whole
// state at every step, never merging interleavings that reach the same
// graph. The memoized enumerator must reach the same outcome set, observe a
// race iff this one does, get stuck iff some path here gets stuck, and
// truncate iff this one does.
#pragma once

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "model/execution.h"
#include "model/litmus.h"
#include "model/table1.h"
#include "util/check.h"

namespace pmc::test_support {

struct ReferenceResult {
  std::set<model::Outcome> outcomes;
  size_t paths = 0;        // completed executions explored
  size_t stuck_paths = 0;  // paths where a poll loop could never succeed
  bool truncated = false;  // max_paths hit
  bool race_observed = false;  // some read had |W_o| > 1 on some path
};

namespace litmus_reference_detail {

using namespace pmc::model;

struct ThreadState {
  std::vector<char> issued;  // per instruction index
  size_t frontier = 0;       // first non-issued index
};

struct State {
  Execution exec;
  std::vector<ThreadState> threads;
  std::vector<int> holder;  // per location: thread holding the lock, or -1
  Outcome regs;

  State(const LitmusTest& t)
      : exec(static_cast<int>(t.threads.size()), t.num_locs,
             t.initial.empty() ? std::vector<uint64_t>(t.num_locs, 0)
                               : t.initial),
        holder(t.num_locs, -1),
        regs(t.num_regs, 0) {
    threads.resize(t.threads.size());
    for (size_t i = 0; i < t.threads.size(); ++i) {
      threads[i].issued.assign(t.threads[i].ops.size(), 0);
    }
  }
};

class Explorer {
 public:
  Explorer(const LitmusTest& test, const ExploreOptions& opts,
           size_t max_paths)
      : test_(test), opts_(opts), max_paths_(max_paths) {}

  ReferenceResult run() {
    State init(test_);
    dfs(init);
    return std::move(result_);
  }

 private:
  std::vector<size_t> issuable(const State& st, size_t t) const {
    const auto& ts = st.threads[t];
    const auto& ops = test_.threads[t].ops;
    std::vector<size_t> out;
    if (ts.frontier >= ops.size()) return out;
    if (opts_.mode == IssueMode::kProgramOrder) {
      out.push_back(ts.frontier);
      return out;
    }
    const size_t end =
        std::min(ops.size(), ts.frontier + static_cast<size_t>(opts_.weak_window));
    for (size_t j = ts.frontier; j < end; ++j) {
      if (ts.issued[j]) continue;
      bool blocked = false;
      for (size_t i = ts.frontier; i < j && !blocked; ++i) {
        if (ts.issued[i]) continue;
        blocked = table1_edge(ops[i].op_kind(), ops[i].loc, ops[j].op_kind(),
                              ops[j].loc)
                      .has_value();
      }
      if (!blocked) out.push_back(j);
    }
    return out;
  }

  void mark_issued(State& st, size_t t, size_t j) const {
    auto& ts = st.threads[t];
    ts.issued[j] = 1;
    while (ts.frontier < ts.issued.size() && ts.issued[ts.frontier]) {
      ++ts.frontier;
    }
  }

  void record_read_race(State& st, OpId read_op) {
    if (!result_.race_observed && st.exec.last_writes(read_op).size() > 1) {
      result_.race_observed = true;
    }
  }

  void dfs(State& st) {
    if (result_.truncated) return;
    bool all_done = true;
    bool advanced = false;
    for (size_t t = 0; t < st.threads.size(); ++t) {
      if (st.threads[t].frontier < st.threads[t].issued.size()) {
        all_done = false;
      }
      for (size_t j : issuable(st, t)) {
        const LitmusOp& op = test_.threads[t].ops[j];
        const ProcId p = static_cast<ProcId>(t);
        switch (op.kind) {
          case LitmusOp::Kind::kStore: {
            State next = st;
            next.exec.write(p, op.loc, op.value);
            mark_issued(next, t, j);
            advanced = true;
            dfs(next);
            break;
          }
          case LitmusOp::Kind::kFence: {
            State next = st;
            next.exec.fence(p);
            mark_issued(next, t, j);
            advanced = true;
            dfs(next);
            break;
          }
          case LitmusOp::Kind::kAcquire: {
            if (st.holder[op.loc] != -1) break;  // mutual exclusion
            State next = st;
            next.exec.acquire(p, op.loc);
            next.holder[op.loc] = static_cast<int>(t);
            mark_issued(next, t, j);
            advanced = true;
            dfs(next);
            break;
          }
          case LitmusOp::Kind::kRelease: {
            PMC_CHECK_MSG(st.holder[op.loc] == static_cast<int>(t),
                          "litmus program releases a lock it does not hold");
            State next = st;
            next.exec.release(p, op.loc);
            next.holder[op.loc] = -1;
            mark_issued(next, t, j);
            advanced = true;
            dfs(next);
            break;
          }
          case LitmusOp::Kind::kLoad: {
            for (OpId src : st.exec.legal_sources_now(p, op.loc)) {
              State next = st;
              const uint64_t v = next.exec.op(src).value;
              const OpId read_op = next.exec.read(p, op.loc, v, src);
              record_read_race(next, read_op);
              if (op.reg >= 0) next.regs[op.reg] = v;
              mark_issued(next, t, j);
              advanced = true;
              dfs(next);
            }
            break;
          }
          case LitmusOp::Kind::kLoadUntil: {
            for (OpId src : st.exec.legal_sources_now(p, op.loc)) {
              if (st.exec.op(src).value != op.value) continue;
              State next = st;
              const OpId read_op = next.exec.read(p, op.loc, op.value, src);
              record_read_race(next, read_op);
              mark_issued(next, t, j);
              advanced = true;
              dfs(next);
            }
            break;
          }
        }
        if (result_.truncated) return;
      }
    }
    if (all_done) {
      result_.outcomes.insert(st.regs);
      if (++result_.paths >= max_paths_) result_.truncated = true;
    } else if (!advanced) {
      ++result_.stuck_paths;
    }
  }

  const LitmusTest& test_;
  const ExploreOptions& opts_;
  const size_t max_paths_;
  ReferenceResult result_;
};

}  // namespace litmus_reference_detail

/// Enumerates `test` path by path; `opts.max_states` is not read, the
/// search stops after `max_paths` completed paths instead.
inline ReferenceResult explore_reference(const model::LitmusTest& test,
                                         const model::ExploreOptions& opts,
                                         size_t max_paths = 5'000'000) {
  return litmus_reference_detail::Explorer(test, opts, max_paths).run();
}

}  // namespace pmc::test_support
