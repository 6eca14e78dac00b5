#include "runtime/program.h"

#include <thread>

#include "runtime/backends/registry.h"
#include "util/check.h"

namespace pmc::rt {

// The Target enum is "host-sc + the registry, shifted by one"; the sim
// helpers below convert by arithmetic, so keep the two in lockstep.
static_assert(static_cast<int>(Target::kNoCC) ==
              static_cast<int>(BackendKind::kNoCC) + 1);
static_assert(static_cast<int>(Target::kShL1) ==
              static_cast<int>(BackendKind::kShL1) + 1);

const char* to_string(Target t) {
  if (t == Target::kHostSC) return "host-sc";
  return to_string(backend_kind(t));
}

std::optional<Target> target_from_string(std::string_view name) {
  if (name == to_string(Target::kHostSC)) return Target::kHostSC;
  const std::optional<BackendKind> k = backend_from_string(name);
  if (!k) return std::nullopt;
  return static_cast<Target>(static_cast<int>(*k) + 1);
}

bool is_sim(Target t) { return t != Target::kHostSC; }

std::vector<Target> all_targets() {
  std::vector<Target> out{Target::kHostSC};
  for (const Target t : sim_targets()) out.push_back(t);
  return out;
}

std::vector<Target> sim_targets() {
  std::vector<Target> out;
  for (const BackendDescriptor& d : backend_registry()) {
    out.push_back(static_cast<Target>(static_cast<int>(d.kind) + 1));
  }
  return out;
}

BackendKind backend_kind(Target t) {
  PMC_CHECK_MSG(is_sim(t), "host target has no sim back-end");
  return static_cast<BackendKind>(static_cast<int>(t) - 1);
}

Program::Program(const ProgramOptions& opts) : opts_(opts) {
  PMC_CHECK(opts_.cores >= 1);
  if (!is_sim(opts_.target)) {
    host_ = std::make_unique<HostSpace>();
    return;
  }
  sim::MachineConfig mc = opts_.machine;
  if (mc.num_cores != opts_.cores) {
    // The caller's machine config was shaped for a different core count, so
    // re-derive the mesh rather than keep (or clamp to) a stale width —
    // `std::min(8, cores)` here used to build ragged meshes for any
    // non-multiple-of-8 count above 8. A config built for exactly
    // opts_.cores keeps its (validated) width, e.g. an explicit mesh_width
    // from a parsed MachineConfig::from_file description.
    mc.num_cores = opts_.cores;
    mc.mesh_width = sim::MachineConfig::derive_mesh_width(opts_.cores);
  }
  const BackendDescriptor& desc = descriptor(backend_kind(opts_.target));
  mc.cache_shared = desc.cache_shared;
  const std::string mc_err = check_machine(desc, mc);
  PMC_CHECK_MSG(mc_err.empty(), mc_err);
  machine_ = std::make_unique<sim::Machine>(mc);
  if (opts_.schedule_policy != nullptr) {
    machine_->set_schedule_policy(opts_.schedule_policy);
  }
  if (opts_.trace != nullptr) {
    machine_->set_trace_recorder(opts_.trace);
  }
  const uint32_t cap = static_cast<uint32_t>(opts_.lock_capacity);
  locks_ = std::make_unique<sync::DistLockManager>(
      *machine_, sim::kSdramBase, cap * 64, /*lm_offset=*/0, cap * 8);
  objs_ = std::make_unique<ObjectSpace>(*machine_, *locks_,
                                        opts_.lock_capacity,
                                        desc.uses_cluster);
  barrier_ = std::make_unique<sync::Barrier>(*machine_,
                                             objs_->barrier_count_word(),
                                             objs_->barrier_flag_offset());
  backend_ = make_backend(backend_kind(opts_.target), *objs_, opts_.faults,
                          opts_.policy);
  rt_.objs = objs_.get();
  rt_.backend = backend_.get();
  rt_.bar = barrier_.get();
  rt_.validate = opts_.validate;
}

Program::~Program() = default;

ObjId Program::create_object(uint32_t size, Placement placement,
                             std::string name, bool immutable) {
  PMC_CHECK_MSG(!ran_, "create_object after run");
  if (host_) return host_->create(size, std::move(name), immutable);
  return objs_->create(size, placement, std::move(name), immutable);
}

void Program::init_object(ObjId id, const void* data, size_t n) {
  PMC_CHECK_MSG(!ran_, "init_object after run");
  if (host_) {
    host_->init(id, data, n);
  } else {
    objs_->init(id, data, n);
  }
}

void Program::run(const std::function<void(Env&)>& body) {
  PMC_CHECK_MSG(!ran_, "a Program runs once");
  ran_ = true;
  if (host_) {
    std::barrier bar(opts_.cores);
    std::vector<std::thread> threads;
    std::exception_ptr error;
    std::mutex error_mu;
    for (int i = 0; i < opts_.cores; ++i) {
      threads.emplace_back([&, i] {
        HostEnv env(*host_, bar, i, opts_.cores);
        try {
          body(env);
          env.finish();
        } catch (...) {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
          // Unblock peers stuck in the barrier.
          bar.arrive_and_drop();
          return;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (error) std::rethrow_exception(error);
    return;
  }
  run_sim(body);
}

void Program::run_sim(const std::function<void(Env&)>& body) {
  objs_->freeze();
  // Held as a member: restored fibers re-enter the body
  // after this frame (and the caller's `body`) are gone.
  body_ = body;
  // All host-side mutable state coupled to the run joins the snapshot
  // contract now — storage is final once the layout is frozen, and the
  // root snapshot fires at the first scheduling decision inside run().
  objs_->register_state();
  locks_->register_state(*machine_);
  barrier_->register_state(*machine_);
  backend_->register_state(*machine_);
  machine_->run([this](sim::Core& core) {
    SimEnv env(rt_, core);
    body_(env);
    env.finish();
  });
  revalidate();
}

void Program::revalidate() {
  if (!opts_.validate) return;
  verdict_.reset();
  memo_entry_ = nullptr;
  if (memo_ != nullptr) {
    memo_entry_ = memo_->find(rt_.trace);
    if (memo_entry_ != nullptr) {
      // The verdict is a pure function of (cores, objects, trace), and the
      // first two never change under one memo: no graph to rebuild.
      validator_.reset();
      verdict_ = memo_entry_->verdict;
      return;
    }
  }
  validator_ = build_validator();
  verdict_ = validator_->verdict();
  if (memo_ != nullptr) memo_entry_ = &memo_->add(rt_.trace, *verdict_);
}

std::unique_ptr<model::TraceValidator> Program::build_validator() const {
  auto v = std::make_unique<model::TraceValidator>(
      opts_.cores, objs_->count(),
      std::vector<uint64_t>(static_cast<size_t>(objs_->count()), 0));
  v->on_events(rt_.trace);
  return v;
}

const model::TraceValidator* Program::validator() const {
  if (validator_ == nullptr && verdict_) validator_ = build_validator();
  return validator_.get();
}

TraceMemo::Entry* TraceMemo::find(
    const std::vector<model::TraceEvent>& trace) {
  const auto it = entries_.find(encode(trace));
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

TraceMemo::Entry& TraceMemo::add(const std::vector<model::TraceEvent>& trace,
                                 model::TraceVerdict verdict) {
  Entry& e = entries_[encode(trace)];
  e.verdict = std::move(verdict);
  return e;
}

const std::string& TraceMemo::encode(
    const std::vector<model::TraceEvent>& trace) {
  // Three LEB128 fields per event: (proc, kind), loc + 1 (fences carry -1),
  // value. Each field is a bijection of its source, so the key is exact.
  static_assert(static_cast<int>(model::TraceEvent::Kind::kFence) < 8);
  const auto put = [this](uint64_t x) {
    for (; x >= 0x80; x >>= 7) key_.push_back(static_cast<char>(x | 0x80));
    key_.push_back(static_cast<char>(x));
  };
  key_.clear();
  for (const model::TraceEvent& e : trace) {
    put(static_cast<uint64_t>(static_cast<uint32_t>(e.proc)) << 3 |
        static_cast<uint64_t>(e.kind));
    put(static_cast<uint32_t>(e.loc) + 1u);
    put(e.value);
  }
  return key_;
}

void Program::set_checkpoint_hook(sim::CheckpointHook* hook) {
  PMC_CHECK(machine_ != nullptr);
  machine_->set_checkpoint_hook(hook);
}

void Program::set_schedule_policy(sim::SchedulePolicy* policy) {
  PMC_CHECK(machine_ != nullptr);
  machine_->set_schedule_policy(policy);
}

void Program::snapshot(Snapshot& s) const {
  PMC_CHECK(machine_ != nullptr);
  machine_->snapshot(s.m);
  s.trace = rt_.trace;
}

void Program::restore(const Snapshot& s) {
  PMC_CHECK(machine_ != nullptr);
  machine_->restore(s.m);
  rt_.trace = s.trace;
}

void Program::resume() {
  PMC_CHECK(machine_ != nullptr);
  machine_->resume();
  revalidate();
}

void Program::read_object(ObjId id, void* out, size_t n) {
  PMC_CHECK_MSG(ran_, "read_object before run");
  if (host_) {
    host_->read_back(id, out, n);
  } else {
    backend_->read_final(id, out, n);
  }
}

sim::CoreStats Program::stats_sum() const {
  PMC_CHECK(machine_ != nullptr);
  return machine_->stats_sum();
}

void Program::require_valid() const {
  if (!is_sim(opts_.target)) return;
  PMC_CHECK_MSG(opts_.validate, "run was not validated");
  PMC_CHECK_MSG(verdict_.has_value(), "require_valid before run");
  PMC_CHECK_MSG(verdict_->ok, to_string(opts_.target)
                                  << " back-end violated the memory model: "
                                  << verdict_->first_violation);
}

}  // namespace pmc::rt
