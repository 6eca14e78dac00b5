#include "model/litmus.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "model/execution.h"
#include "model/table1.h"
#include "util/check.h"

namespace pmc::model {

OpKind LitmusOp::op_kind() const {
  switch (kind) {
    case Kind::kLoad:
    case Kind::kLoadUntil:
      return OpKind::kRead;
    case Kind::kStore:
      return OpKind::kWrite;
    case Kind::kAcquire:
      return OpKind::kAcquire;
    case Kind::kRelease:
      return OpKind::kRelease;
    case Kind::kFence:
      return OpKind::kFence;
  }
  return OpKind::kFence;
}

namespace {

struct ThreadState {
  std::vector<char> issued;  // per instruction index
  size_t frontier = 0;       // first non-issued index
};

struct State {
  Execution exec;
  std::vector<ThreadState> threads;
  std::vector<int> holder;  // per location: thread holding the lock, or -1
  Outcome regs;
  /// Per op id: the op's issue-order-free name. Location v's initial op is
  /// named v; op j of thread t is named base[t] + j, so names sort by
  /// (thread + 1, program index).
  std::vector<uint16_t> names;

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
    // The initial ops are ops 0..num_locs-1, in location order.
    for (LocId v = 0; v < t.num_locs; ++v) {
      names.push_back(static_cast<uint16_t>(v));
    }
  }
};

class Explorer {
 public:
  Explorer(const LitmusTest& test, const ExploreOptions& opts)
      : test_(test), opts_(opts) {
    size_t next = static_cast<size_t>(test.num_locs);
    for (const auto& th : test.threads) {
      base_.push_back(static_cast<uint16_t>(next));
      next += th.ops.size();
    }
  }

  ExploreResult run() {
    State init(test_);
    dfs(init);
    return std::move(result_);
  }

 private:
  /// Instruction indices of thread t that may issue next. In program-order
  /// mode this is just the frontier; in weak-issue mode any instruction in
  /// the window may hoist unless Table I orders it behind a pending earlier
  /// instruction.
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

  /// Records that op j of thread t was just issued as the newest op.
  void mark_issued(State& st, size_t t, size_t j) const {
    st.names.push_back(static_cast<uint16_t>(base_[t] + j));
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

  /// The exact key of `st`: the renamed graph, then the registers (LEB128).
  /// The names fix which ops are issued, hence the lock holders, and the
  /// graph fixes the issue order of every pair Execution compares
  /// (DESIGN.md §4).
  void encode(const State& st, std::string& key) const {
    key.clear();
    st.exec.append_canonical(st.names, key);
    for (uint64_t r : st.regs) {
      for (; r >= 0x80; r >>= 7) key.push_back(static_cast<char>(r | 0x80));
      key.push_back(static_cast<char>(r));
    }
  }

  void dfs(State& st) {
    if (result_.truncated) return;
    encode(st, key_);
    if (!visited_.insert(key_).second) return;
    if (result_.states == opts_.max_states) {
      result_.truncated = true;
      return;
    }
    ++result_.states;
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
            // Only the terminating poll iteration is modeled; failing polls
            // read older values, which cannot restrict the outcomes we only
            // continue from (monotonicity points forward).
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
    } else if (!advanced) {
      result_.stuck = true;
    }
  }

  const LitmusTest& test_;
  const ExploreOptions& opts_;
  std::vector<uint16_t> base_;  // per thread: name of its op 0
  std::unordered_set<std::string> visited_;  // keys of expanded states
  std::string key_;
  ExploreResult result_;
};

}  // namespace

ExploreResult explore(const LitmusTest& test, const ExploreOptions& opts) {
  size_t num_ops = static_cast<size_t>(test.num_locs);
  for (const auto& th : test.threads) num_ops += th.ops.size();
  PMC_CHECK_MSG(test.threads.size() < 255 && num_ops < 0xFFFF,
                "litmus test too large for 16-bit op names: " << test.name);
  for (const auto& th : test.threads) {
    for (const auto& op : th.ops) {
      PMC_CHECK_MSG(op.kind == LitmusOp::Kind::kFence ||
                        (op.loc >= 0 && op.loc < test.num_locs),
                    "litmus op location out of range in " << test.name);
      PMC_CHECK(op.reg < test.num_regs);
    }
  }
  Explorer e(test, opts);
  return e.run();
}

bool outcome_allowed(const LitmusTest& test, const Outcome& outcome,
                     const ExploreOptions& opts) {
  return explore(test, opts).outcomes.count(outcome) > 0;
}

}  // namespace pmc::model
