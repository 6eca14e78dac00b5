#include "model/execution.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace pmc::model {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kRead: return "R";
    case OpKind::kWrite: return "W";
    case OpKind::kAcquire: return "acq";
    case OpKind::kRelease: return "rel";
    case OpKind::kFence: return "fence";
  }
  return "?";
}

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::kLocal: return "local";
    case EdgeKind::kProgram: return "program";
    case EdgeKind::kSync: return "sync";
    case EdgeKind::kFence: return "fence";
  }
  return "?";
}

std::string Operation::describe() const {
  std::ostringstream os;
  os << "#" << id << " p";
  if (proc == kInitProc) {
    os << "*";
  } else {
    os << proc;
  }
  os << " ";
  bool first = true;
  for (OpKind k : {OpKind::kRead, OpKind::kWrite, OpKind::kAcquire,
                   OpKind::kRelease, OpKind::kFence}) {
    if (is(k)) {
      if (!first) os << "+";
      os << to_string(k);
      first = false;
    }
  }
  if (loc >= 0) os << " v" << loc;
  if (is(OpKind::kWrite) || is(OpKind::kRead)) {
    if (value == kBottom) {
      os << "=⊥";
    } else {
      os << "=" << value;
    }
  }
  return os.str();
}

Execution::Execution(int num_procs, int num_locs,
                     const std::vector<uint64_t>& initial)
    : num_procs_(num_procs), num_locs_(num_locs) {
  PMC_CHECK(num_procs >= 1);
  PMC_CHECK(num_locs >= 0);
  PMC_CHECK(initial.empty() || initial.size() == static_cast<size_t>(num_locs));
  in_begin_.push_back(0);
  writes_.resize(num_locs_);
  chain_len_.assign(num_locs_, 1);
  release_frontier_.resize(num_locs_);
  pls_.resize(static_cast<size_t>(num_procs_) * num_locs_);
  ps_.resize(num_procs_);
  init_.reserve(num_locs_);
  for (LocId v = 0; v < num_locs_; ++v) {
    // Definition 3: one initial op per location that is both write and release.
    const uint64_t val = initial.empty() ? kBottom : initial[v];
    const OpId id = new_op(kind_bit(OpKind::kWrite) | kind_bit(OpKind::kRelease),
                           kInitProc, v, val);
    init_.push_back(id);
    writes_[v].push_back(id);
    release_frontier_[v].push_back(id);
    for (ProcId p = 0; p < num_procs_; ++p) pls(p, v).last_write = id;
  }
}

const Operation& Execution::op(OpId id) const {
  PMC_CHECK(id < ops_.size());
  return ops_[id];
}

OpId Execution::init_op(LocId v) const {
  PMC_CHECK(v >= 0 && v < num_locs_);
  return init_[v];
}

std::span<const Edge> Execution::in_edges(OpId id) const {
  PMC_CHECK(id < ops_.size());
  return {edges_.data() + in_begin_[id], edges_.data() + in_begin_[id + 1]};
}

const std::vector<OpId>& Execution::writes_to(LocId v) const {
  PMC_CHECK(v >= 0 && v < num_locs_);
  return writes_[v];
}

bool Execution::write_chained(LocId v) const {
  const auto& ws = writes_to(v);
  const size_t n = ws.size();
  if (n < 2 || chain_len_[v] == n) return true;
  // The chain broke exactly at the newest write, or earlier; only then does
  // the pair need a search of its own.
  if (chain_len_[v] == n - 1) return false;
  return reachable(ws[n - 2], ws[n - 1], kAnyProc);
}

OpId Execution::last_read_source(ProcId p, LocId v) const {
  return pls(p, v).last_read_source;
}

Execution::ProcLocState& Execution::pls(ProcId p, LocId v) {
  PMC_CHECK(p >= 0 && p < num_procs_ && v >= 0 && v < num_locs_);
  return pls_[static_cast<size_t>(p) * num_locs_ + v];
}

const Execution::ProcLocState& Execution::pls(ProcId p, LocId v) const {
  PMC_CHECK(p >= 0 && p < num_procs_ && v >= 0 && v < num_locs_);
  return pls_[static_cast<size_t>(p) * num_locs_ + v];
}

void Execution::touch(ProcId p, LocId v) {
  auto& dirty = ps_[p].dirty_since_fence;
  if (std::find(dirty.begin(), dirty.end(), v) == dirty.end()) {
    dirty.push_back(v);
  }
}

OpId Execution::new_op(uint8_t kinds, ProcId p, LocId v, uint64_t value) {
  Operation o;
  o.id = static_cast<OpId>(ops_.size());
  o.kinds = kinds;
  o.proc = p;
  o.loc = v;
  o.value = value;
  ops_.push_back(o);
  in_begin_.push_back(in_begin_.back());
  return o.id;
}

void Execution::add_edge(OpId from, OpId to, EdgeKind kind) {
  if (from == kNoOp) return;
  PMC_CHECK(from < to);  // the graph is topologically ordered by id
  PMC_CHECK(to + 1 == ops_.size());  // in-edges arrive with their target
  Edge e;
  e.from = from;
  e.to = to;
  e.kind = kind;
  if (kind == EdgeKind::kLocal) {
    // Local edges always connect operations of one process; the ⋆ initial
    // process takes the view of the newer endpoint.
    e.owner = ops_[from].proc == kInitProc ? ops_[to].proc : ops_[from].proc;
  }
  edges_.push_back(e);
  in_begin_.back() = static_cast<uint32_t>(edges_.size());
}

namespace {
/// id comparison where kNoOp counts as "older than everything".
bool newer(OpId a, OpId b) { return a != kNoOp && (b == kNoOp || a > b); }
}  // namespace

OpId Execution::read(ProcId p, LocId v, uint64_t value, OpId source) {
  auto& s = pls(p, v);
  if (source != kNoOp) {
    PMC_CHECK_MSG(op(source).is(OpKind::kWrite) && op(source).loc == v,
                  "read source must be a write to the same location");
    // Definition 12, second clause: successive reads of one process on one
    // location must observe non-decreasing writes.
    if (s.last_read_source != kNoOp) {
      PMC_CHECK_MSG(hb_view_eq(p, s.last_read_source, source),
                    "read monotonicity violated: " << op(source).describe()
                        << " is not ⪰ previous source "
                        << op(s.last_read_source).describe());
    }
  }
  const OpId id = new_op(kind_bit(OpKind::kRead), p, v, value);
  ops_[id].source = source;
  // Table I column r: r→r ≺ℓ, w→r ≺ℓ, A→r ≺ℓ. Older reads/writes/acquires
  // reach the newest one of their kind transitively (r chains via ≺ℓ, w via
  // ≺P, A via A≺P R≺S A), so edges from the newest of each suffice.
  add_edge(s.last_read, id, EdgeKind::kLocal);
  if (newer(s.last_write, s.last_read)) {
    add_edge(s.last_write, id, EdgeKind::kLocal);
  }
  if (newer(s.last_acquire, s.last_read)) {
    add_edge(s.last_acquire, id, EdgeKind::kLocal);
  }
  s.last_read = id;
  if (source != kNoOp) s.last_read_source = source;
  touch(p, v);
  return id;
}

OpId Execution::write(ProcId p, LocId v, uint64_t value) {
  auto& s = pls(p, v);
  const OpId id = new_op(kind_bit(OpKind::kWrite), p, v, value);
  // Table I column w: r→w ≺ℓ, w→w ≺P, A→w ≺P, F→w ≺F.
  // The ≺P edge from the last write is always added: a newer local path (via
  // reads) would not preserve the *globally* visible program order.
  add_edge(s.last_write, id, EdgeKind::kProgram);
  if (newer(s.last_acquire, s.last_write)) {
    add_edge(s.last_acquire, id, EdgeKind::kProgram);
  }
  if (newer(s.last_read, s.last_write)) {
    add_edge(s.last_read, id, EdgeKind::kLocal);
  }
  const OpId f = ps_[p].last_fence;
  if (newer(f, s.last_write) && newer(f, s.last_acquire)) {
    add_edge(f, id, EdgeKind::kFence);
  }
  s.last_write = id;
  // Extend v's write chain while it still covers every earlier write.
  auto& ws = writes_[v];
  if (chain_len_[v] == ws.size() && reachable(ws.back(), id, kAnyProc)) {
    ++chain_len_[v];
  }
  ws.push_back(id);
  touch(p, v);
  return id;
}

OpId Execution::release(ProcId p, LocId v) {
  auto& s = pls(p, v);
  const OpId id = new_op(kind_bit(OpKind::kRelease), p, v, 0);
  // Table I column R: r→R ≺ℓ, w→R ≺P, A→R ≺P, F→R ≺F.
  add_edge(s.last_write, id, EdgeKind::kProgram);
  if (newer(s.last_acquire, s.last_write)) {
    add_edge(s.last_acquire, id, EdgeKind::kProgram);
  }
  if (newer(s.last_read, s.last_write)) {
    add_edge(s.last_read, id, EdgeKind::kLocal);
  }
  const OpId f = ps_[p].last_fence;
  if (newer(f, s.last_write) && newer(f, s.last_acquire)) {
    add_edge(f, id, EdgeKind::kFence);
  }
  s.last_sync = id;
  release_frontier_[v].push_back(id);
  touch(p, v);
  return id;
}

OpId Execution::acquire(ProcId p, LocId v) {
  auto& s = pls(p, v);
  const OpId id = new_op(kind_bit(OpKind::kAcquire), p, v, 0);
  // Table I column A: R→A ≺S (releases of *any* process, the † footnote),
  // F→A ≺F. Notably *not* r→A: the paper's Fig. 5 discussion relies on a
  // fence being required to keep an acquire behind a poll loop.
  for (OpId rel : release_frontier_[v]) add_edge(rel, id, EdgeKind::kSync);
  release_frontier_[v].clear();
  const OpId f = ps_[p].last_fence;
  if (f != kNoOp) add_edge(f, id, EdgeKind::kFence);
  s.last_acquire = id;
  s.last_sync = id;
  touch(p, v);
  return id;
}

OpId Execution::fence(ProcId p) {
  const OpId id = new_op(kind_bit(OpKind::kFence), p, /*loc=*/-1, 0);
  // Table I column F: r→F ≺ℓ, w→F ≺ℓ, A→F ≺F, R→F ≺F, across *all*
  // locations the process touched. Edges older than the previous fence are
  // covered by chaining the previous fence (≺F) — a closure-preserving
  // reduction, property-checked against NaiveExecution.
  auto& proc = ps_[p];
  for (LocId v : proc.dirty_since_fence) {
    auto& s = pls(p, v);
    if (s.last_sync != kNoOp && newer(s.last_sync, proc.last_fence)) {
      add_edge(s.last_sync, id, EdgeKind::kFence);
    }
    if (s.last_write != init_[v] && newer(s.last_write, proc.last_fence)) {
      add_edge(s.last_write, id, EdgeKind::kLocal);
    }
    if (newer(s.last_read, s.last_write) &&
        newer(s.last_read, proc.last_fence)) {
      add_edge(s.last_read, id, EdgeKind::kLocal);
    }
  }
  add_edge(proc.last_fence, id, EdgeKind::kFence);
  proc.dirty_since_fence.clear();
  proc.last_fence = id;
  return id;
}

namespace {
/// Reused DFS buffers, one set per thread and shared by every Execution the
/// thread queries. A visit stamp equal to `gen` marks an op seen by the
/// current search, so starting a search costs no clearing.
struct SearchScratch {
  std::vector<uint32_t> stamp;  // per op
  uint32_t gen = 0;
  std::vector<OpId> stack;
};
thread_local SearchScratch tl_scratch;
}  // namespace

bool Execution::reachable(OpId a, OpId b, ProcId view) const {
  if (a >= b) return false;  // edges only point up in id order
  // Iterative DFS backwards from b; a path from a only passes ids in [a, b].
  SearchScratch& sc = tl_scratch;
  if (sc.stamp.size() < ops_.size()) sc.stamp.resize(ops_.size(), 0);
  if (++sc.gen == 0) {  // stamps wrapped: forget every old mark
    std::fill(sc.stamp.begin(), sc.stamp.end(), 0);
    sc.gen = 1;
  }
  const uint32_t gen = sc.gen;
  auto& stack = sc.stack;
  stack.clear();
  stack.push_back(b);
  while (!stack.empty()) {
    const OpId cur = stack.back();
    stack.pop_back();
    const Edge* end = edges_.data() + in_begin_[cur + 1];
    for (const Edge* e = edges_.data() + in_begin_[cur]; e != end; ++e) {
      if (e->kind == EdgeKind::kLocal && view != e->owner) continue;
      if (e->from == a) return true;
      if (e->from < a || sc.stamp[e->from] == gen) continue;
      sc.stamp[e->from] = gen;
      stack.push_back(e->from);
    }
  }
  return false;
}

size_t Execution::chained_prefix(LocId v, OpId upper) const {
  const auto& ws = writes_[v];
  const size_t m = static_cast<size_t>(
      std::lower_bound(ws.begin(), ws.end(), upper) - ws.begin());
  return m <= chain_len_[v] ? m : 0;
}

bool Execution::hb_global(OpId a, OpId b) const {
  PMC_CHECK(a < ops_.size() && b < ops_.size());
  return reachable(a, b, kAnyProc);
}

bool Execution::hb_view(ProcId p, OpId a, OpId b) const {
  PMC_CHECK(a < ops_.size() && b < ops_.size());
  PMC_CHECK(p >= 0 && p < num_procs_);
  return reachable(a, b, p);
}

std::vector<OpId> Execution::last_writes_impl(ProcId p,
                                              const std::vector<OpId>& preds,
                                              LocId v, OpId upper) const {
  // R = { a ∈ (w,·,v,·) | a p⪯ some pred }, i.e. all writes ordered before
  // the (possibly hypothetical) operation whose predecessors are `preds`.
  const auto before = [&](OpId w) {
    for (OpId pr : preds) {
      if (w == pr || reachable(w, pr, p)) return true;
    }
    return false;
  };
  const auto& ws = writes_[v];
  if (const size_t m = chained_prefix(v, upper); m > 0) {
    // The writes below `upper` are ≺G-chained and ≺G is in every view, so
    // R is a prefix of them and W is its newest element. Check the newest
    // write, then binary-search for the end of the prefix.
    if (before(ws[m - 1])) return {ws[m - 1]};
    size_t lo = 0;      // every write below ws[lo] is in R
    size_t hi = m - 1;  // ws[hi] is not
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (before(ws[mid])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) return {};
    return {ws[lo - 1]};
  }
  std::vector<OpId> r_set;
  for (OpId w : ws) {
    if (w >= upper) break;
    if (before(w)) r_set.push_back(w);
  }
  if (r_set.empty()) return r_set;
  // W = maximal elements of R under the p-view order (Definition 11). Fast
  // path: the newest write usually dominates all others.
  const OpId cand = r_set.back();
  bool cand_dominates = true;
  for (OpId w : r_set) {
    if (w != cand && !reachable(w, cand, p)) {
      cand_dominates = false;
      break;
    }
  }
  if (cand_dominates) return {cand};
  std::vector<OpId> maximal;
  for (OpId w : r_set) {
    bool dominated = false;
    for (OpId w2 : r_set) {
      if (w2 != w && reachable(w, w2, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(w);
  }
  return maximal;
}

std::vector<OpId> Execution::last_writes(OpId o) const {
  const Operation& read_op = op(o);
  PMC_CHECK(read_op.loc >= 0);
  const ProcId p = read_op.proc;
  std::vector<OpId> preds;
  for (const Edge& e : in_edges(o)) {
    if (e.kind == EdgeKind::kLocal && e.owner != p) continue;
    preds.push_back(e.from);
  }
  return last_writes_impl(p, preds, read_op.loc, o);
}

std::vector<OpId> Execution::last_writes_now(ProcId p, LocId v) const {
  // Predecessors a read issued now would receive per Table I column r.
  const auto& s = pls(p, v);
  std::vector<OpId> preds;
  if (s.last_read != kNoOp) preds.push_back(s.last_read);
  if (s.last_write != kNoOp) preds.push_back(s.last_write);
  if (s.last_acquire != kNoOp) preds.push_back(s.last_acquire);
  return last_writes_impl(p, preds, v, static_cast<OpId>(ops_.size()));
}

std::vector<OpId> Execution::legal_sources_now(ProcId p, LocId v) const {
  const std::vector<OpId> frontier = last_writes_now(p, v);
  const OpId last_src = pls(p, v).last_read_source;
  const auto& ws = writes_[v];
  if (chained_prefix(v, static_cast<OpId>(ops_.size())) == ws.size()) {
    // All of v's writes are ≺G-chained: W is one write, and the writes p⪰
    // it (and p⪰ the previous source) are the chain suffixes they start.
    if (frontier.empty()) return {};
    const auto index_of = [&](OpId w) {
      return std::lower_bound(ws.begin(), ws.end(), w) - ws.begin();
    };
    auto first = index_of(frontier.front());
    if (last_src != kNoOp) first = std::max(first, index_of(last_src));
    return {ws.begin() + first, ws.end()};
  }
  std::vector<OpId> legal;
  for (OpId b : ws) {
    // Definition 12: b is readable iff some a ∈ W with a p⪯ b.
    bool after_frontier = false;
    for (OpId a : frontier) {
      if (a == b || reachable(a, b, p)) {
        after_frontier = true;
        break;
      }
    }
    if (!after_frontier) continue;
    // Second clause (read monotonicity): previous source must be p⪯ b.
    if (last_src != kNoOp && b != last_src && !reachable(last_src, b, p)) {
      continue;
    }
    legal.push_back(b);
  }
  return legal;
}

std::vector<std::pair<OpId, OpId>> Execution::unordered_write_pairs(
    LocId v) const {
  std::vector<std::pair<OpId, OpId>> pairs;
  const auto& ws = writes_[v];
  for (size_t i = 0; i < ws.size(); ++i) {
    for (size_t j = i + 1; j < ws.size(); ++j) {
      if (!reachable(ws[i], ws[j], kAnyProc) &&
          !reachable(ws[j], ws[i], kAnyProc)) {
        pairs.emplace_back(ws[i], ws[j]);
      }
    }
  }
  return pairs;
}

namespace {
void put16(std::string& key, uint16_t x) {
  key.push_back(static_cast<char>(x));
  key.push_back(static_cast<char>(x >> 8));
}
}  // namespace

void Execution::append_canonical(std::span<const uint16_t> name,
                                 std::string& key) const {
  PMC_CHECK(name.size() == ops_.size());
  PMC_CHECK(ops_.size() < 0xFFFF);
  const auto nm = [&](OpId id) -> uint16_t {
    return id == kNoOp ? 0xFFFF : name[id];
  };
  std::vector<OpId> by_name(ops_.size());
  for (OpId id = 0; id < by_name.size(); ++id) by_name[id] = id;
  std::sort(by_name.begin(), by_name.end(),
            [&](OpId a, OpId b) { return name[a] < name[b]; });
  put16(key, static_cast<uint16_t>(ops_.size()));
  std::vector<uint16_t> sorted;  // in-edge source names, or locations
  for (OpId id : by_name) {
    put16(key, name[id]);
    sorted.clear();
    for (const Edge& e : in_edges(id)) sorted.push_back(name[e.from]);
    std::sort(sorted.begin(), sorted.end());
    put16(key, static_cast<uint16_t>(sorted.size()));
    for (uint16_t n : sorted) put16(key, n);
  }
  for (const ProcLocState& s : pls_) {
    for (OpId id : {s.last_write, s.last_acquire, s.last_read, s.last_sync,
                    s.last_read_source}) {
      put16(key, nm(id));
    }
  }
  for (const ProcState& ps : ps_) {
    put16(key, nm(ps.last_fence));
    sorted.assign(ps.dirty_since_fence.begin(), ps.dirty_since_fence.end());
    std::sort(sorted.begin(), sorted.end());
    put16(key, static_cast<uint16_t>(sorted.size()));
    for (uint16_t v : sorted) put16(key, v);
  }
}

std::string Execution::to_dot() const {
  std::ostringstream os;
  os << "digraph pmc {\n  rankdir=TB;\n  node [shape=box,fontname=\"mono\"];\n";
  for (const Operation& o : ops_) {
    os << "  n" << o.id << " [label=\"" << o.describe() << "\"];\n";
  }
  std::vector<Edge> by_source = edges_;
  std::stable_sort(
      by_source.begin(), by_source.end(),
      [](const Edge& x, const Edge& y) { return x.from < y.from; });
  for (const Edge& e : by_source) {
    const char* style = "solid";
    const char* color = "black";
    switch (e.kind) {
      case EdgeKind::kLocal: style = "dashed"; color = "gray40"; break;
      case EdgeKind::kProgram: color = "black"; break;
      case EdgeKind::kSync: color = "blue"; break;
      case EdgeKind::kFence: color = "red"; break;
    }
    os << "  n" << e.from << " -> n" << e.to << " [style=" << style
       << ",color=" << color << ",label=\"" << to_string(e.kind) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace pmc::model
