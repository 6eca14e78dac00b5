#include "explore/check.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "apps/mfifo.h"
#include "apps/task_queue.h"
#include "explore/litmus_driver.h"
#include "explore/stateful.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/hash.h"

namespace pmc::explore {

// -- Happens-before trace fingerprint ----------------------------------------

namespace {

/// Dependence chains of one location: the node hash of its last write, a
/// commutative accumulator of the reads since that write (a write must
/// order after every one of them, but the reads commute among themselves),
/// and the last acquire/release (lock order is a total chain per location).
struct LocChain {
  uint64_t last_write = 0;
  uint64_t reads_acc = 0;
  uint64_t last_sync = 0;
};

/// Stutter witness of one processor: the dependence-relevant content of its
/// most recent event when that event was a read. A poll loop spinning on an
/// unchanged version re-issues byte-identical reads; collapsing them makes
/// spin-iteration counts (pure timing) invisible to the quotient.
struct LastRead {
  bool valid = false;
  model::LocId loc = -1;
  uint64_t value = 0;
  uint64_t dep = 0;  // the last_write chain the read observed
};

}  // namespace

uint64_t hb_trace_hash(const std::vector<model::TraceEvent>& trace) {
  using Kind = model::TraceEvent::Kind;
  std::unordered_map<model::ProcId, uint64_t> proc_chain;
  std::unordered_map<model::ProcId, LastRead> last_read;
  std::unordered_map<model::LocId, LocChain> locs;
  uint64_t sum = 0;  // commutative fold: wrapping sum of per-event hashes
  for (const model::TraceEvent& e : trace) {
    LocChain& lc = locs[e.loc];
    LastRead& lr = last_read[e.proc];
    if (e.kind == Kind::kRead && lr.valid && lr.loc == e.loc &&
        lr.value == e.value && lr.dep == lc.last_write) {
      continue;  // stuttering poll read: same location, value, and writer
    }
    uint64_t node = util::kFnvOffset;
    node = util::hash_combine(node, static_cast<uint64_t>(e.kind));
    node = util::hash_combine(node, static_cast<uint64_t>(e.proc));
    node = util::hash_combine(node,
                              static_cast<uint64_t>(static_cast<int64_t>(e.loc)));
    node = util::hash_combine(node, e.value);
    node = util::hash_combine(node, proc_chain[e.proc]);  // program order
    switch (e.kind) {
      case Kind::kRead:
        node = util::hash_combine(node, lc.last_write);
        break;
      case Kind::kWrite:
        node = util::hash_combine(node, lc.last_write);
        node = util::hash_combine(node, lc.reads_acc);
        break;
      case Kind::kAcquire:
      case Kind::kRelease:
        node = util::hash_combine(node, lc.last_sync);
        break;
      case Kind::kFence:
        break;  // program order only
    }
    sum += node;
    proc_chain[e.proc] = node;
    lr.valid = e.kind == Kind::kRead;
    if (lr.valid) {
      lr.loc = e.loc;
      lr.value = e.value;
      lr.dep = lc.last_write;
    }
    switch (e.kind) {
      case Kind::kRead:
        lc.reads_acc += node;
        break;
      case Kind::kWrite:
        lc.last_write = node;
        lc.reads_acc = 0;
        break;
      case Kind::kAcquire:
      case Kind::kRelease:
        lc.last_sync = node;
        break;
      case Kind::kFence:
        break;
    }
  }
  return util::hash_combine(util::kFnvOffset, sum);
}

// -- Stateful decomposition --------------------------------------------------

void judge_run(const StatefulSpec& spec, rt::Program& prog, RunOutcome& out) {
  rt::TraceMemo::Entry* memo = prog.memo_entry();
  if (memo == nullptr) {
    out.trace_hash = hb_trace_hash(prog.trace());
  } else {
    if (!memo->hb_hash) memo->hb_hash = hb_trace_hash(prog.trace());
    out.trace_hash = *memo->hb_hash;
  }
  spec.judge(prog, out);
  const model::TraceVerdict* v = prog.verdict();
  if (v != nullptr && !v->ok) {
    out.ok = false;
    out.message = "Definition 12 violation: " + v->first_violation;
  }
}

RunOutcome run_spec_once(const StatefulSpec& spec, ReplayPolicy& policy) {
  RunOutcome out;
  try {
    rt::ProgramOptions opts = spec.opts;
    opts.schedule_policy = &policy;
    rt::Program prog(opts);
    spec.setup(prog);
    prog.run(spec.body);
    judge_run(spec, prog, out);
  } catch (const std::exception& e) {
    out.ok = false;
    out.message = e.what();
  }
  return out;
}

RunOutcome CheckTarget::run(ReplayPolicy& policy) const {
  return run_spec_once(make_spec(), policy);
}

StatefulSpec FnTarget::make_spec() const {
  PMC_CHECK_MSG(false, name() << " is not stateful_capable");
  return {};
}

// -- LitmusTarget ------------------------------------------------------------

namespace {

bool contains_poll(const model::LitmusTest& test) {
  for (const auto& th : test.threads) {
    for (const auto& op : th.ops) {
      if (op.kind == model::LitmusOp::Kind::kLoadUntil) return true;
    }
  }
  return false;
}

}  // namespace

LitmusTarget::LitmusTarget(model::LitmusTest test, rt::Target target,
                           rt::FaultInjection faults,
                           std::optional<sim::MachineConfig> machine)
    : test_(std::move(test)),
      target_(target),
      faults_(faults),
      machine_(std::move(machine)) {
  PMC_CHECK_MSG(annotatable(test_),
                test_.name << " is not annotation-disciplined; the back-ends "
                              "only define behavior for §V-A programs");
  PMC_CHECK_MSG(rt::is_sim(target_), "exploration drives simulated targets");
  has_poll_ = contains_poll(test_);
  // The in-order simulated cores issue in program order, so the
  // program-order enumeration is the exact end-to-end oracle.
  allowed_ = model::explore(test_).outcomes;
  PMC_CHECK_MSG(!allowed_.empty(),
                test_.name << " reaches no final state in the model");
}

std::string LitmusTarget::name() const {
  return test_.name + "@" + rt::to_string(target_);
}

StatefulSpec LitmusTarget::make_spec() const {
  using Kind = model::LitmusOp::Kind;
  StatefulSpec spec;
  spec.opts.target = target_;
  spec.opts.cores = static_cast<int>(test_.threads.size());
  if (machine_.has_value()) {
    // Custom shape (e.g. --config): timing/cache/NoC model come from the
    // description; Program re-derives the core count and mesh for the test.
    spec.opts.machine = *machine_;
  } else {
    spec.opts.machine = sim::MachineConfig::ml605(spec.opts.cores);
    spec.opts.machine.lm_bytes = 32 * 1024;
    spec.opts.machine.sdram_bytes = 256 * 1024;
  }
  spec.opts.machine.max_cycles = UINT64_C(50'000'000);
  spec.opts.lock_capacity = 16;
  spec.opts.validate = true;
  spec.opts.faults = faults_;
  spec.opts.policy.dsm_eager_release = has_poll_;

  // Run-mutable oracle state lives on the heap, shared by the phase
  // lambdas: a run()-frame local would be gone by the first resume.
  struct State {
    std::vector<rt::ObjId> objs;
    std::vector<uint64_t> regs;
  };
  auto st = std::make_shared<State>();

  spec.setup = [this, st](rt::Program& prog) {
    st->objs.clear();  // idempotent: the executor may rebuild the Program
    for (int v = 0; v < test_.num_locs; ++v) {
      const uint32_t init =
          v < static_cast<int>(test_.initial.size())
              ? static_cast<uint32_t>(test_.initial[static_cast<size_t>(v)])
              : 0;
      st->objs.push_back(prog.create_typed<uint32_t>(
          init, rt::Placement::kReplicated, "v" + std::to_string(v)));
    }
    st->regs.assign(static_cast<size_t>(test_.num_regs), 0);
    if (!st->regs.empty()) {
      prog.machine()->register_state(st->regs.data(),
                                     st->regs.size() * sizeof(uint64_t));
    }
  };

  spec.body = [this, st](rt::Env& env) {
    const auto& ops = test_.threads[static_cast<size_t>(env.id())].ops;
    // This frame lives on a checkpointable fiber stack: locals alive across
    // runtime calls must be trivially copyable (SimEnv bounds open-section
    // nesting to kMaxOpen before anything could be pushed past it).
    model::LocId open[rt::SimEnv::kMaxOpen];
    int num_open = 0;
    auto is_open = [&](model::LocId v) {
      for (int i = 0; i < num_open; ++i) {
        if (open[i] == v) return true;
      }
      return false;
    };
    for (const auto& op : ops) {
      const rt::ObjId obj =
          op.loc >= 0 ? st->objs[static_cast<size_t>(op.loc)] : -1;
      switch (op.kind) {
        case Kind::kAcquire:
          env.entry_x(obj);
          open[num_open++] = op.loc;
          break;
        case Kind::kRelease:
          env.exit_x(obj);
          --num_open;
          break;
        case Kind::kStore:
          env.st<uint32_t>(obj, 0, static_cast<uint32_t>(op.value));
          break;
        case Kind::kLoad: {
          uint32_t v;
          if (is_open(op.loc)) {
            v = env.ld<uint32_t>(obj);
          } else {
            env.entry_ro(obj);
            v = env.ld<uint32_t>(obj);
            env.exit_ro(obj);
          }
          if (op.reg >= 0) st->regs[static_cast<size_t>(op.reg)] = v;
          break;
        }
        case Kind::kLoadUntil: {
          uint32_t v;
          do {
            env.entry_ro(obj);
            v = env.ld<uint32_t>(obj);
            env.exit_ro(obj);
          } while (v != static_cast<uint32_t>(op.value));
          break;
        }
        case Kind::kFence:
          env.fence();
          break;
      }
    }
  };

  spec.judge = [this, st](rt::Program&, RunOutcome& out) {
    uint64_t& h = out.trace_hash;
    for (const uint64_t r : st->regs) h = util::hash_combine(h, r);

    if (allowed_.find(st->regs) == allowed_.end()) {
      out.ok = false;
      out.message = "outcome {";
      for (size_t i = 0; i < st->regs.size(); ++i) {
        if (i) out.message += ',';
        out.message += std::to_string(st->regs[i]);
      }
      out.message += "} is not reachable in the model";
    }
  };
  return spec;
}

// -- GenProgramTarget --------------------------------------------------------

GenProgramTarget::GenProgramTarget(GenProgram prog, rt::Target target,
                                   rt::FaultInjection faults)
    : prog_(std::move(prog)), target_(target), faults_(faults) {
  PMC_CHECK_MSG(!prog_.threads.empty() &&
                    static_cast<int>(prog_.threads.size()) == prog_.shape.cores,
                "program thread count must match its shape");
  PMC_CHECK_MSG(rt::is_sim(target_), "exploration drives simulated targets");
}

std::string GenProgramTarget::name() const {
  return "fuzz-seed-" + std::to_string(prog_.shape.seed) + "@" +
         rt::to_string(target_);
}

StatefulSpec GenProgramTarget::make_spec() const {
  StatefulSpec spec;
  spec.opts.target = target_;
  spec.opts.cores = prog_.shape.cores;
  spec.opts.machine = sim::MachineConfig::ml605(spec.opts.cores);
  spec.opts.machine.lm_bytes = 32 * 1024;
  spec.opts.machine.sdram_bytes = 512 * 1024;
  spec.opts.machine.max_cycles = UINT64_C(100'000'000);
  spec.opts.lock_capacity = 64;
  spec.opts.validate = true;
  spec.opts.faults = faults_;

  struct State {
    std::vector<rt::ObjId> objs;
  };
  auto st = std::make_shared<State>();

  spec.setup = [this, st](rt::Program& p) {
    st->objs.clear();  // idempotent: the executor may rebuild the Program
    for (int i = 0; i < prog_.shape.objects; ++i) {
      st->objs.push_back(p.create_typed<uint32_t>(
          GenProgram::initial_value(i), rt::Placement::kReplicated,
          "fuzz" + std::to_string(i)));
    }
    // The objs list is the only host-side state; run_ops never mutates it,
    // so there is nothing to register with the snapshot contract.
  };

  spec.body = [this, st](rt::Env& env) { run_ops(prog_, env, st->objs); };

  spec.judge = [this, st](rt::Program& p, RunOutcome& out) {
    uint64_t& h = out.trace_hash;
    for (int i = 0; i < prog_.shape.objects; ++i) {
      h = util::hash_combine(h,
                             p.result<uint32_t>(st->objs[static_cast<size_t>(i)]));
    }

    for (int i = 0; i < prog_.shape.objects; ++i) {
      const uint32_t got = p.result<uint32_t>(st->objs[static_cast<size_t>(i)]);
      const uint32_t want = prog_.expected_final(i);
      if (got != want) {
        out.ok = false;
        out.message = "final-state divergence on " +
                      std::string(rt::to_string(target_)) + ": object x" +
                      std::to_string(i) + " is " + std::to_string(got) +
                      ", every back-end must reach " + std::to_string(want);
        return;
      }
    }
  };
  return spec;
}

size_t GenProgramTarget::shrink_count() const { return prog_.ops(); }

std::unique_ptr<CheckTarget> GenProgramTarget::shrink(size_t i) const {
  GenProgram cand = prog_;
  for (size_t th = 0; th < cand.threads.size(); ++th) {
    const size_t len = cand.threads[th].size();
    if (i < len) {
      // Dropping a barrier removes the matching slot-aligned barrier from
      // every thread, so the candidates for thread > 0's instances are
      // byte-identical to thread 0's — structurally duplicate, not worth a
      // re-exploration each.
      if (th > 0 && cand.threads[th][i].kind == GenOp::Kind::kBarrier) {
        return nullptr;
      }
      if (!cand.drop(static_cast<int>(th), i)) return nullptr;
      return std::make_unique<GenProgramTarget>(std::move(cand), target_,
                                                faults_);
    }
    i -= len;
  }
  return nullptr;
}

// -- Apps-layer targets ------------------------------------------------------

namespace {

rt::ProgramOptions app_options(rt::Target target, int cores,
                               const rt::FaultInjection& faults,
                               sim::SchedulePolicy* policy) {
  rt::ProgramOptions opts;
  opts.target = target;
  opts.cores = cores;
  opts.machine = sim::MachineConfig::ml605(cores);
  opts.machine.lm_bytes = 32 * 1024;
  opts.machine.sdram_bytes = 256 * 1024;
  // A seeded protocol fault can starve a poll loop outright (e.g. SPM never
  // copying the counter back); the watchdog converts the hang into a failing
  // outcome the session then minimizes. Clean app runs at these shapes stay
  // well under 100k cycles, so 2M is ample headroom while keeping the
  // deadlocked-schedule case (which simulates every cycle) explorable.
  opts.machine.max_cycles = UINT64_C(2'000'000);
  opts.lock_capacity = 32;
  opts.validate = true;
  opts.faults = faults;
  opts.schedule_policy = policy;
  return opts;
}

}  // namespace

MFifoTarget::MFifoTarget(rt::Target target, MFifoShape shape,
                         rt::FaultInjection faults)
    : target_(target), shape_(shape), faults_(faults) {
  PMC_CHECK_MSG(rt::is_sim(target_), "exploration drives simulated targets");
  PMC_CHECK(shape_.depth >= 1 && shape_.readers >= 1 && shape_.items >= 1);
}

std::string MFifoTarget::name() const {
  return "mfifo(d" + std::to_string(shape_.depth) + ",r" +
         std::to_string(shape_.readers) + ",i" + std::to_string(shape_.items) +
         ")@" + rt::to_string(target_);
}

StatefulSpec MFifoTarget::make_spec() const {
  StatefulSpec spec;
  spec.opts = app_options(target_, 1 + shape_.readers, faults_,
                          /*policy=*/nullptr);
  // push() and pop() both poll pointers; like every polling litmus test,
  // DSM must release eagerly or the unsynchronized poll spins forever.
  spec.opts.policy.dsm_eager_release = true;

  struct State {
    std::optional<apps::MFifo> fifo;
    // Flat readers × items element log plus per-reader counts: the body
    // mutates these mid-run, so they join the snapshot contract — which
    // requires fixed, registrable storage, not ragged push_back vectors.
    std::vector<uint32_t> got;
    std::vector<uint32_t> counts;
  };
  auto st = std::make_shared<State>();

  spec.setup = [this, st](rt::Program& prog) {
    st->fifo.emplace(prog, /*elem_bytes=*/4, shape_.depth, shape_.readers);
    st->got.assign(static_cast<size_t>(shape_.readers) * shape_.items, 0);
    st->counts.assign(static_cast<size_t>(shape_.readers), 0);
    prog.machine()->register_state(st->got.data(),
                                   st->got.size() * sizeof(uint32_t));
    prog.machine()->register_state(st->counts.data(),
                                   st->counts.size() * sizeof(uint32_t));
  };

  spec.body = [this, st](rt::Env& env) {
    if (env.id() == 0) {
      for (uint32_t i = 0; i < shape_.items; ++i) {
        const uint32_t v = 100u + i;
        st->fifo->push(env, &v);
      }
    } else {
      const size_t me = static_cast<size_t>(env.id() - 1);
      for (uint32_t i = 0; i < shape_.items; ++i) {
        uint32_t v = 0;
        st->fifo->pop(env, env.id() - 1, &v);
        st->got[me * shape_.items + st->counts[me]++] = v;
      }
    }
  };

  spec.judge = [this, st](rt::Program&, RunOutcome& out) {
    uint64_t& h = out.trace_hash;
    for (int r = 0; r < shape_.readers; ++r) {
      const size_t base = static_cast<size_t>(r) * shape_.items;
      for (uint32_t i = 0; i < st->counts[static_cast<size_t>(r)]; ++i) {
        h = util::hash_combine(h, st->got[base + i]);
      }
    }

    // Broadcast delivery: every reader received every element, in push
    // order (a single writer makes the global slot order the push order).
    // A completed run pops exactly `items` elements per reader.
    for (int r = 0; r < shape_.readers; ++r) {
      const size_t base = static_cast<size_t>(r) * shape_.items;
      for (uint32_t i = 0; i < shape_.items; ++i) {
        if (st->got[base + i] != 100u + i) {
          out.ok = false;
          out.message = "broadcast violation on " +
                        std::string(rt::to_string(target_)) + ": reader " +
                        std::to_string(r) + " got " +
                        std::to_string(st->got[base + i]) + " as element " +
                        std::to_string(i) + ", expected " +
                        std::to_string(100u + i);
          return;
        }
      }
    }
  };
  return spec;
}

TaskCounterTarget::TaskCounterTarget(rt::Target target, TaskCounterShape shape,
                                     rt::FaultInjection faults)
    : target_(target), shape_(shape), faults_(faults) {
  PMC_CHECK_MSG(rt::is_sim(target_), "exploration drives simulated targets");
  PMC_CHECK(shape_.cores >= 1 && shape_.total >= 1 && shape_.chunk >= 1);
}

std::string TaskCounterTarget::name() const {
  return "taskcounter(c" + std::to_string(shape_.cores) + ",t" +
         std::to_string(shape_.total) + ",k" + std::to_string(shape_.chunk) +
         ")@" + rt::to_string(target_);
}

StatefulSpec TaskCounterTarget::make_spec() const {
  using Chunk = apps::TaskCounter::Chunk;
  StatefulSpec spec;
  spec.opts = app_options(target_, shape_.cores, faults_, /*policy=*/nullptr);

  // The chunk log joins the snapshot contract (the body fills it mid-run),
  // so it must be fixed-size. A correct execution grabs at most `total`
  // non-empty chunks per core; a fault-injected counter can briefly regress
  // and hand out more, so leave slack — past it the run is reported as a
  // failing outcome rather than silently dropping chunks.
  const uint32_t cap = shape_.total + 16;

  struct State {
    apps::TaskCounter counter;
    std::vector<Chunk> chunks;     // flat cores × cap grab log
    std::vector<uint32_t> counts;  // per-core chunks grabbed
  };
  auto st = std::make_shared<State>();

  spec.setup = [this, st, cap](rt::Program& prog) {
    st->counter.create(prog);
    st->chunks.assign(static_cast<size_t>(shape_.cores) * cap, Chunk{});
    st->counts.assign(static_cast<size_t>(shape_.cores), 0);
    prog.machine()->register_state(st->chunks.data(),
                                   st->chunks.size() * sizeof(Chunk));
    prog.machine()->register_state(st->counts.data(),
                                   st->counts.size() * sizeof(uint32_t));
  };

  spec.body = [this, st, cap](rt::Env& env) {
    const size_t me = static_cast<size_t>(env.id());
    for (;;) {
      const Chunk c = st->counter.grab(env, shape_.total, shape_.chunk);
      if (c.empty()) break;
      // A verdict, not an internal invariant: it names the oracle and no
      // source location, so reports read the same in every checkout.
      if (st->counts[me] >= cap) {
        throw std::runtime_error(
            "taskcounter runaway: core " + std::to_string(env.id()) +
            " grabbed more than " + std::to_string(cap) + " chunks of [0," +
            std::to_string(shape_.total) + ")");
      }
      st->chunks[me * cap + st->counts[me]++] = c;
    }
  };

  spec.judge = [this, st, cap](rt::Program&, RunOutcome& out) {
    uint64_t& h = out.trace_hash;
    for (int core = 0; core < shape_.cores; ++core) {
      const size_t base = static_cast<size_t>(core) * cap;
      for (uint32_t i = 0; i < st->counts[static_cast<size_t>(core)]; ++i) {
        h = util::hash_combine(h, st->chunks[base + i].begin);
        h = util::hash_combine(h, st->chunks[base + i].end);
      }
    }

    // Exact chunk partition: the grabbed chunks tile [0, total) with no
    // gap, no overlap, and no chunk larger than the grab size.
    std::vector<Chunk> all;
    for (int core = 0; core < shape_.cores; ++core) {
      const size_t base = static_cast<size_t>(core) * cap;
      for (uint32_t i = 0; i < st->counts[static_cast<size_t>(core)]; ++i) {
        all.push_back(st->chunks[base + i]);
      }
    }
    std::sort(all.begin(), all.end(), [](const Chunk& a, const Chunk& b) {
      return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
    });
    uint32_t next = 0;
    for (const Chunk& c : all) {
      if (c.begin != next || c.end <= c.begin || c.end > shape_.total ||
          c.end - c.begin > shape_.chunk) {
        out.ok = false;
        out.message = "partition violation on " +
                      std::string(rt::to_string(target_)) + ": chunk [" +
                      std::to_string(c.begin) + "," + std::to_string(c.end) +
                      ") does not extend [0," + std::to_string(next) +
                      ") exactly";
        return;
      }
      next = c.end;
    }
    if (next != shape_.total) {
      out.ok = false;
      out.message = "partition violation on " +
                    std::string(rt::to_string(target_)) + ": chunks cover [0," +
                    std::to_string(next) + ") of [0," +
                    std::to_string(shape_.total) + ")";
    }
  };
  return spec;
}

const char* to_string(AppKind kind) {
  switch (kind) {
    case AppKind::kMFifo: return "mfifo";
    case AppKind::kTaskCounter: return "taskcounter";
  }
  return "?";
}

std::optional<AppKind> app_kind_from_string(std::string_view text) {
  if (text == "mfifo") return AppKind::kMFifo;
  if (text == "taskcounter") return AppKind::kTaskCounter;
  return std::nullopt;
}

std::vector<AppKind> all_app_kinds() {
  return {AppKind::kMFifo, AppKind::kTaskCounter};
}

std::unique_ptr<CheckTarget> make_app_target(AppKind kind, rt::Target target,
                                             rt::FaultInjection faults) {
  switch (kind) {
    case AppKind::kMFifo:
      return std::make_unique<MFifoTarget>(target, MFifoShape{}, faults);
    case AppKind::kTaskCounter:
      return std::make_unique<TaskCounterTarget>(target, TaskCounterShape{},
                                                 faults);
  }
  PMC_CHECK_MSG(false, "unknown app kind");
  return nullptr;
}

// -- CheckSession ------------------------------------------------------------

CheckSession::CheckSession(SessionOptions opts) : opts_(std::move(opts)) {
  PMC_CHECK(opts_.explore.preemption_bound >= 0);
  if (opts_.jobs < 1) opts_.jobs = 1;
}

namespace {

/// The executors one Explorer built through a snapshot-engine factory, kept
/// so their pool counters can be merged into the report afterwards.
struct Executors {
  std::mutex mu;
  std::vector<std::shared_ptr<StatefulExecutor>> all;
};

/// The Explorer for `target` under `opts`. A stateful_capable() target runs
/// on the snapshot engine: every worker gets a private StatefulExecutor
/// (each owns a Program and a pool, so the runners share nothing mutable —
/// the same contract as stateless runners). Otherwise the workers share the
/// target's thread-safe run().
Explorer explorer_for(const SessionOptions& opts, const CheckTarget& target,
                      Executors* execs = nullptr) {
  if (!target.stateful_capable()) return Explorer(target.runner(), opts.jobs);
  StatefulOptions sopts;
  sopts.horizon = opts.explore.horizon;
  return Explorer(
      [&target, sopts, execs]() {
        auto e = std::make_shared<StatefulExecutor>(target.make_spec(), sopts);
        if (execs != nullptr) {
          std::lock_guard<std::mutex> lk(execs->mu);
          execs->all.push_back(e);
        }
        return ScheduleRunner([e](ReplayPolicy& p) { return e->run(p); });
      },
      opts.jobs);
}

}  // namespace

ExploreReport CheckSession::explore(const CheckTarget& target) const {
  Executors execs;
  Explorer ex = explorer_for(opts_, target, &execs);
  ExploreReport rep = ex.explore(opts_.explore);
  for (const auto& e : execs.all) {
    rep.snapshots_taken += e->stats().snapshots_taken;
    rep.snapshot_hits += e->stats().pool_hits;
    rep.snapshot_misses += e->stats().pool_misses;
    rep.judge_memo_hits += e->stats().judge_memo_hits;
    rep.judge_memo_misses += e->stats().judge_memo_misses;
  }
  return rep;
}

RunOutcome CheckSession::replay(const CheckTarget& target,
                                const DecisionString& schedule,
                                bool* fully_applied,
                                obs::TraceRecorder* recorder) const {
  ReplayPolicy policy(schedule, opts_.explore.horizon);
  RunOutcome out;
  if (recorder != nullptr && target.stateful_capable()) {
    StatefulSpec spec = target.make_spec();
    spec.opts.trace = recorder;
    out = run_spec_once(spec, policy);
  } else {
    out = target.run(policy);
  }
  // An override whose choice no longer matches the candidate count aborts
  // the run mid-way (unconsumed as well), so unused_overrides() == 0 is
  // exactly "this outcome belongs to the requested schedule".
  if (fully_applied != nullptr) {
    *fully_applied = policy.unused_overrides() == 0;
  }
  return out;
}

DecisionString CheckSession::minimize(const CheckTarget& target,
                                      DecisionString failing) const {
  return explorer_for(opts_, target)
      .minimize(std::move(failing), opts_.explore.horizon);
}

CheckReport CheckSession::check(const CheckTarget& target) const {
  CheckReport rep;
  rep.target = target.name();
  const auto t0 = std::chrono::steady_clock::now();
  const ExploreReport r = explore(target);
  rep.telemetry.explore_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rep.telemetry.schedules_per_sec =
      rep.telemetry.explore_seconds > 0
          ? static_cast<double>(r.explored) / rep.telemetry.explore_seconds
          : 0;
  rep.telemetry.snapshots_taken = r.snapshots_taken;
  rep.telemetry.snapshot_hits = r.snapshot_hits;
  rep.telemetry.snapshot_misses = r.snapshot_misses;
  rep.telemetry.judge_memo_hits = r.judge_memo_hits;
  rep.telemetry.judge_memo_misses = r.judge_memo_misses;
  rep.telemetry.worker_steals = r.worker_steals;
  rep.telemetry.hb_curve = r.hb_curve;
  rep.explored = r.explored;
  rep.distinct_traces = r.distinct_traces;
  rep.failing = r.failing;
  rep.max_decision_points = r.max_decision_points;
  rep.truncated = r.truncated;
  rep.trace_hashes = r.trace_hashes;
  rep.ok = r.failing == 0;
  if (rep.ok) return rep;

  rep.first_failing = r.first_failing;
  rep.first_failing_message = r.first_failing_message;
  // Minimize against the original target first: this is the only schedule a
  // caller can replay without the shrunk target in hand (repro lines), and
  // it must be computed before shrinking shifts the decision steps.
  rep.repro_schedule = minimize(target, r.first_failing);

  if (r.truncated || target.shrink_count() == 0) {
    // Which schedules a truncated exploration covers depends on worker
    // timing, so re-exploration-based target shrinking would be neither
    // deterministic nor sound. Minimize the schedule actually in hand.
    rep.minimized_schedule = rep.repro_schedule;
    rep.minimized_message = replay(target, rep.minimized_schedule).message;
    return rep;
  }

  // Shrink the target: greedily accept any single-step reduction that keeps
  // some schedule failing. Each candidate is judged by *re-exploring* the
  // reduced target — a dropped op shifts every later decision step, so
  // replaying the old string would describe a different schedule. (Shrunk
  // targets have no more decision points than the original, so with the
  // original untruncated none of these re-explorations can truncate either.)
  std::shared_ptr<const CheckTarget> owned;
  const CheckTarget* cur = &target;
  ExploreReport cur_rep = r;
  bool changed = true;
  while (changed) {
    changed = false;
    const size_t n = cur->shrink_count();
    for (size_t i = 0; i < n; ++i) {
      std::unique_ptr<CheckTarget> cand = cur->shrink(i);
      if (cand == nullptr) continue;
      const ExploreReport cand_rep = explore(*cand);
      if (cand_rep.failing > 0) {
        owned = std::move(cand);
        cur = owned.get();
        cur_rep = cand_rep;
        changed = true;
        ++rep.telemetry.shrink_rounds;
        break;
      }
    }
  }
  PMC_CHECK_MSG(cur_rep.failing > 0,
                "minimized target stopped failing — minimizer bug");

  if (owned != nullptr) {
    rep.minimized_schedule = minimize(*cur, cur_rep.first_failing);
    rep.minimized_message = replay(*cur, rep.minimized_schedule).message;
    rep.minimized_listing = cur->describe();
    rep.minimized_target = std::move(owned);
  } else {
    // Nothing was droppable: the original target is already 1-minimal, and
    // its minimized schedule is exactly the repro_schedule in hand.
    rep.minimized_schedule = rep.repro_schedule;
    rep.minimized_message = replay(target, rep.minimized_schedule).message;
  }
  return rep;
}

std::string CheckReport::to_text() const {
  std::string s;
  s += "target: " + target + "\n";
  s += "explored: " + std::to_string(explored) +
       " pruned: " + std::to_string(pruned) +
       " dpor_pruned: " + std::to_string(dpor_pruned) +
       " distinct_traces: " + std::to_string(distinct_traces) +
       " max_decision_points: " + std::to_string(max_decision_points) +
       (truncated ? " truncated" : "") + "\n";
  s += "failing: " + std::to_string(failing) + "\n";
  if (failing > 0) {
    s += "first_failing: \"" + explore::to_string(first_failing) +
         "\": " + first_failing_message + "\n";
    s += "repro_schedule: \"" + explore::to_string(repro_schedule) + "\"\n";
    s += "minimized_schedule: \"" + explore::to_string(minimized_schedule) +
         "\": " + minimized_message + "\n";
    if (!minimized_listing.empty()) {
      s += "minimized_target:\n" + minimized_listing;
    }
  }
  return s;
}

std::string CheckReport::to_json() const {
  // The numeric payload goes through the metrics registry: one export path
  // for session counters, bench numbers, and dashboards alike.
  obs::MetricsRegistry m;
  m.inc("explored", explored);
  m.inc("pruned", pruned);
  m.inc("dpor_pruned", dpor_pruned);
  m.inc("distinct_traces", distinct_traces);
  m.inc("failing", failing);
  m.inc("max_decision_points", max_decision_points);
  m.inc("shrink_rounds", telemetry.shrink_rounds);
  m.inc("snapshots_taken", telemetry.snapshots_taken);
  m.inc("snapshot_hits", telemetry.snapshot_hits);
  m.inc("snapshot_misses", telemetry.snapshot_misses);
  m.inc("judge_memo_hits", telemetry.judge_memo_hits);
  m.inc("judge_memo_misses", telemetry.judge_memo_misses);
  for (size_t w = 0; w < telemetry.worker_steals.size(); ++w) {
    m.inc("steals_worker_" + std::to_string(w), telemetry.worker_steals[w]);
  }
  m.set_gauge("explore_seconds", telemetry.explore_seconds);
  m.set_gauge("schedules_per_sec", telemetry.schedules_per_sec);

  std::string s = "{\"target\":" + obs::json_quote(target);
  s += ",\"ok\":";
  s += ok ? "true" : "false";
  s += ",\"truncated\":";
  s += truncated ? "true" : "false";
  if (failing > 0) {
    s += ",\"first_failing\":" +
         obs::json_quote(explore::to_string(first_failing));
    s += ",\"first_failing_message\":" + obs::json_quote(first_failing_message);
    s += ",\"repro_schedule\":" +
         obs::json_quote(explore::to_string(repro_schedule));
    s += ",\"minimized_schedule\":" +
         obs::json_quote(explore::to_string(minimized_schedule));
  }
  s += ",\"hb_curve\":[";
  for (size_t i = 0; i < telemetry.hb_curve.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(telemetry.hb_curve[i]);
  }
  s += "],\"metrics\":" + m.to_json();
  s += "}";
  return s;
}

}  // namespace pmc::explore
