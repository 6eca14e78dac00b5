#include "sim/machine.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/hash.h"

namespace pmc::sim {

int MachineConfig::derive_mesh_width(int cores) {
  PMC_CHECK_MSG(cores >= 1, "num_cores must be >= 1");
  for (int w = std::min(8, cores); w > 1; --w) {
    if (cores % w == 0) return w;
  }
  return 1;
}

MachineConfig MachineConfig::ml605(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  // Derived, never assumed: `cores >= 8 ? 8 : cores` silently built ragged
  // meshes (12 cores → an 8-wide grid with a 4-tile last row) whose
  // out-of-grid coordinates made hop counts nonsense.
  c.mesh_width = derive_mesh_width(cores);
  return c;
}

void MachineConfig::validate() const {
  PMC_CHECK_MSG(num_cores >= 1, "num_cores must be >= 1");
  PMC_CHECK_MSG(mesh_width >= 1, "mesh_width must be >= 1");
  PMC_CHECK_MSG(num_cores % mesh_width == 0,
                "ragged mesh: " << num_cores << " cores cannot fill rows of "
                                << mesh_width
                                << " (pick a width dividing the core count)");
  PMC_CHECK_MSG(lm_bytes > 0 && lm_bytes <= kLmStride,
                "lm_bytes must be in (0, " << kLmStride << "]");
  // The cluster SRAM window starts where tile slots would otherwise
  // continue, so an enabled cluster lowers the tile ceiling.
  const Addr tile_limit = cluster_bytes > 0 ? kClusterBase : kSdramBase;
  const int max_tiles = static_cast<int>((tile_limit - kLmBase) / kLmStride);
  PMC_CHECK_MSG(num_cores <= max_tiles,
                "too many tiles for the address map (max " << max_tiles
                                                           << ")");
  PMC_CHECK_MSG(cluster_bytes <= kSdramBase - kClusterBase,
                "cluster_bytes must be <= " << (kSdramBase - kClusterBase));
  PMC_CHECK_MSG(sdram_bytes > 0, "sdram_bytes must be > 0");
  PMC_CHECK_MSG(dcache.line_bytes >= 4 &&
                    (dcache.line_bytes & (dcache.line_bytes - 1)) == 0,
                "cache line_bytes must be a power of two >= 4");
  PMC_CHECK_MSG(dcache.ways >= 1 &&
                    dcache.size_bytes % (dcache.line_bytes * dcache.ways) == 0,
                "cache size_bytes must be a multiple of line_bytes * ways");
  PMC_CHECK_MSG(noc_buffer_words >= 1, "noc buffer_words must be >= 1");
}

MachineConfig MachineConfig::fig1_twomem() {
  MachineConfig c;
  c.num_cores = 2;
  c.mesh_width = 2;
  // "latency: 10" for the memory holding X vs "latency: 1" for the flag:
  // SDRAM writes become visible slowly, NoC writes quickly.
  c.timing.sdram_write_visible = 40;
  c.timing.noc_base = 2;
  c.timing.noc_per_hop = 1;
  c.cache_shared = false;
  return c;
}

Machine::Machine(const MachineConfig& cfg)
    // The comma operator runs the shape checks before any member is built —
    // a bad config fails with validate()'s message, not a member's.
    : cfg_((cfg.validate(), cfg)),
      sched_(cfg.num_cores, cfg.max_cycles),
      sdram_("sdram", kSdramBase, cfg.sdram_bytes),
      noc_(cfg.num_cores, cfg.mesh_width, cfg.timing, cfg.noc_model,
           cfg.noc_buffer_words) {
  if (cfg_.cluster_bytes > 0) {
    cluster_ = std::make_unique<MemModule>("cluster", kClusterBase,
                                           cfg_.cluster_bytes);
  }
  lms_.reserve(cfg_.num_cores);
  cores_.reserve(cfg_.num_cores);
  for (int t = 0; t < cfg_.num_cores; ++t) {
    lms_.push_back(std::make_unique<MemModule>(
        "lm" + std::to_string(t), kLmBase + static_cast<Addr>(t) * kLmStride,
        cfg_.lm_bytes));
    cores_.push_back(std::make_unique<CoreState>(cfg_.dcache, sched_, t));
  }
  stats_.resize(cfg_.num_cores);
}

Addr Machine::lm_base(int tile) const {
  PMC_CHECK(tile >= 0 && tile < cfg_.num_cores);
  return kLmBase + static_cast<Addr>(tile) * kLmStride;
}

int Machine::tile_of(Addr a) const {
  if (a < kLmBase || a >= kLmBase + static_cast<Addr>(cfg_.num_cores) * kLmStride) {
    return -1;
  }
  const int tile = static_cast<int>((a - kLmBase) / kLmStride);
  return a - lm_base(tile) < cfg_.lm_bytes ? tile : -1;
}

MemModule& Machine::module_for(Addr a, size_t n) {
  if (sdram_.contains(a, n)) return sdram_;
  if (cluster_ != nullptr && cluster_->contains(a, n)) return *cluster_;
  const int tile = tile_of(a);
  PMC_CHECK_MSG(tile >= 0 && lms_[tile]->contains(a, n),
                "unmapped address " << a << " (+" << n << ")");
  return *lms_[tile];
}

void Machine::poke(Addr a, const void* data, size_t n) {
  PMC_CHECK_MSG(!ran_, "poke() after run()");
  module_for(a, n).write(0, a, data, n);
}

void Machine::peek(Addr a, void* out, size_t n) {
  module_for(a, n).read(UINT64_MAX, a, out, n);
}

void Machine::run(const std::function<void(Core&)>& body) {
  PMC_CHECK_MSG(!ran_, "a Machine instance runs once");
  ran_ = true;
  // Held as a member: restored fibers re-enter the body
  // long after this frame has returned.
  body_ = body;
  sched_.run([this](int id) {
    Core core(*this, id);
    body_(core);
    // Frontier warps (DESIGN.md §6) advance a core's clock without passing
    // through any charge; folding them into idle here keeps the §V-B
    // decomposition identity cycles_total == busy + stall_total() + idle
    // exact under schedule policies (a no-op for default scheduling).
    stats_[id].idle += sched_.warped(id);
    stats_[id].cycles_total = sched_.now(id);
  });
}

void Machine::register_state(void* p, size_t n) {
  PMC_CHECK(p != nullptr && n > 0);
  regions_.push_back({p, n});
}

Machine::Snapshot Machine::snapshot() const {
  Snapshot s;
  s.sched = sched_.snapshot();
  s.caches.reserve(cores_.size());
  s.core_acc.reserve(cores_.size());
  for (const auto& c : cores_) {
    // Cold caches (non-cached back-ends never install a line) snapshot as
    // empty and restore as a no-op.
    s.caches.push_back(c->dcache.ever_used() ? c->dcache.snapshot()
                                             : Cache::Snapshot{});
    s.core_acc.push_back({c->imiss_acc, c->priv_acc});
  }
  s.stats = stats_;
  s.sdram = sdram_.snapshot();
  s.lms.reserve(lms_.size());
  for (const auto& lm : lms_) s.lms.push_back(lm->snapshot());
  if (cluster_ != nullptr) s.cluster = cluster_->snapshot();
  s.noc = noc_.snapshot();
  s.regions.reserve(regions_.size());
  for (const auto& [p, n] : regions_) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    s.regions.emplace_back(b, b + n);
  }
  // Recorder contents travel with the machine so restore() rolls abandoned-
  // branch events back (attach the recorder before the first snapshot).
  if (trace_ != nullptr) s.trace = trace_->snapshot();
  return s;
}

void Machine::restore(const Snapshot& s) {
  PMC_CHECK_MSG(s.regions.size() == regions_.size(),
                "snapshot predates register_state() calls ("
                    << s.regions.size() << " regions captured, "
                    << regions_.size() << " registered)");
  sched_.restore(s.sched);
  for (size_t i = 0; i < cores_.size(); ++i) {
    CoreState& c = *cores_[i];
    if (c.dcache.ever_used()) c.dcache.restore(s.caches[i]);
    c.imiss_acc = s.core_acc[i].first;
    c.priv_acc = s.core_acc[i].second;
  }
  stats_ = s.stats;
  sdram_.restore(s.sdram);
  for (size_t i = 0; i < lms_.size(); ++i) lms_[i]->restore(s.lms[i]);
  if (cluster_ != nullptr) cluster_->restore(s.cluster);
  noc_.restore(s.noc);
  for (size_t i = 0; i < regions_.size(); ++i) {
    PMC_CHECK(s.regions[i].size() == regions_[i].second);
    std::memcpy(regions_[i].first, s.regions[i].data(), s.regions[i].size());
  }
  if (trace_ != nullptr) trace_->restore(s.trace);
}

uint64_t Machine::digest(const Snapshot& s) {
  uint64_t h = util::kFnvOffset;
  const auto mix = [&h](uint64_t v) { h = util::hash_combine(h, v); };
  const auto mix_bytes = [&h](const void* p, size_t n) {
    h = util::hash_combine(h,
                           util::fnv1a(static_cast<const uint8_t*>(p), n));
  };
  mix(s.sched.step);
  mix(s.sched.frontier);
  mix(static_cast<uint64_t>(s.sched.current));
  mix(static_cast<uint64_t>(s.sched.resume_core + 1));
  // The trace buffer is deliberately NOT digested: the digest certifies
  // simulator state, and the trace is a log of how we got there (DESIGN.md
  // §11) — tracing on/off must not change snapshot-idempotence checks.
  for (const auto& sl : s.sched.slots) {
    mix(sl.time);
    mix(sl.warped);
    mix(sl.done);
    mix(sl.observable);
    mix(sl.fp.is_wildcard());
    for (const auto& a : sl.fp.accesses()) {
      mix(a.addr);
      mix(a.len);
      mix(static_cast<uint64_t>(a.kind));
      mix(a.sync);
    }
  }
  for (const auto& f : s.sched.fibers) {
    // The fiber switch saves the callee-saved registers and FP control
    // words on the stack, so hashing from the saved SP upward covers the
    // whole switched-out context; the SP itself enters as its offset. The
    // margin below the SP is dead at the switch and holds sanitizer-runtime
    // residue.
    mix(f.stack_off + f.dead_bytes);
    mix_bytes(f.stack.data() + f.dead_bytes, f.stack.size() - f.dead_bytes);
  }
  for (const auto& c : s.caches) {
    mix(c.tick);
    mix_bytes(c.line_idx.data(), c.line_idx.size() * sizeof(uint32_t));
    for (const auto& l : c.lines) {
      mix(l.tag);
      mix(l.is_dirty);
      mix(l.lru);
    }
    mix_bytes(c.bytes.data(), c.bytes.size());
  }
  for (const auto& [im, pv] : s.core_acc) {
    mix(im);
    mix(pv);
  }
  // CoreStats is all-uint64_t (no padding), so raw bytes are deterministic.
  mix_bytes(s.stats.data(), s.stats.size() * sizeof(CoreStats));
  const auto mix_mem = [&](const MemModule::Snapshot& m) {
    mix_bytes(m.pages.data(), m.pages.size() * sizeof(uint32_t));
    mix_bytes(m.page_bytes.data(), m.page_bytes.size());
    mix(m.next_seq);
    mix(m.port_free);
    // Histograms are observational aggregates of the counters below, so the
    // counters suffice to certify port state.
    mix(m.port_stats.reservations);
    mix(m.port_stats.wait_cycles);
    mix(m.port_stats.busy_cycles);
    auto q = m.pending;  // priority_queue: drain a copy in deterministic order
    while (!q.empty()) {
      const auto& p = q.top();
      mix(p.arrival);
      mix(p.seq);
      mix(p.addr);
      mix_bytes(p.data.data(), p.data.size());
      q.pop();
    }
  };
  mix_mem(s.sdram);
  for (const auto& m : s.lms) mix_mem(m);
  mix_mem(s.cluster);  // default-constructed (stable) without a cluster
  // Clock maps mix sorted by index with zero-valued entries elided, so the
  // digest depends only on the clocks' content — a dense map padded with
  // explicit zeros and the sparse touched-entry map hash identically.
  const auto mix_clock_map =
      [&](std::vector<std::pair<uint32_t, uint64_t>> map) {
        std::sort(map.begin(), map.end());
        for (const auto& [i, v] : map) {
          if (v == 0) continue;
          mix(i);
          mix(v);
        }
      };
  mix_clock_map(s.noc.channels);
  mix_clock_map(s.noc.links);
  mix(s.noc.packets);
  mix(s.noc.bytes);
  mix(s.noc.link_stall_cycles);
  mix(s.noc.stalled_packets);
  for (const auto& r : s.regions) mix_bytes(r.data(), r.size());
  return h;
}

void Machine::export_metrics(obs::MetricsRegistry& reg) const {
  reg.inc("noc.packets", noc_.packets_sent());
  reg.inc("noc.bytes", noc_.bytes_sent());
  reg.inc("noc.link_stall_cycles", noc_.link_stall_cycles());
  reg.inc("noc.stalled_packets", noc_.stalled_packets());
  reg.merge_histogram("noc.link_stall", noc_.link_stall_hist());
  const auto port = [&](const MemModule& m) {
    const MemModule::PortStats& p = m.port_stats();
    reg.inc("port.reservations", p.reservations);
    reg.inc("port.wait_cycles", p.wait_cycles);
    reg.inc("port.busy_cycles", p.busy_cycles);
    reg.merge_histogram("port.wait", p.wait_hist);
  };
  port(sdram_);
  reg.merge_histogram("port.sdram.wait", sdram_.port_stats().wait_hist);
  for (const auto& lm : lms_) port(*lm);
  if (cluster_ != nullptr) {
    port(*cluster_);
    reg.merge_histogram("port.cluster.wait", cluster_->port_stats().wait_hist);
  }
}

CoreStats Machine::stats_sum() const {
  CoreStats sum;
  for (const auto& s : stats_) sum += s;
  return sum;
}

uint64_t Machine::state_hash() {
  sdram_.drain_all();
  uint64_t h = util::kFnvOffset;
  h = util::hash_combine(h, sdram_.content_hash());
  for (int t = 0; t < cfg_.num_cores; ++t) {
    lms_[t]->drain_all();
    h = util::hash_combine(h, lms_[t]->content_hash());
    h = util::hash_combine(h, stats_[t].cycles_total);
  }
  if (cluster_ != nullptr) {
    cluster_->drain_all();
    h = util::hash_combine(h, cluster_->content_hash());
  }
  return h;
}

// ---------------------------------------------------------------------------
// Core facade
// ---------------------------------------------------------------------------

int Core::num_cores() const { return m_.cfg_.num_cores; }
uint64_t Core::now() const { return m_.sched_.now(id_); }
const MachineConfig& Core::config() const { return m_.cfg_; }
CoreStats& Core::stats() { return m_.stats_[id_]; }

void Core::charge(uint64_t busy, uint64_t stall,
                  uint64_t CoreStats::*bucket) {
  auto& s = m_.stats_[id_];
  s.busy += busy;
  if (stall != 0) s.*bucket += stall;
  m_.sched_.advance(id_, busy + stall);
}

void Core::trace(obs::EventKind kind, uint64_t t0, Addr addr, uint32_t len,
                 uint16_t aux, uint64_t arg) {
  obs::TraceEvent e;
  e.kind = kind;
  e.core = static_cast<int16_t>(id_);
  e.aux = aux;
  e.len = len;
  e.t0 = t0;
  e.t1 = now();
  e.addr = addr;
  e.arg = arg;
  m_.trace_->record(e);
  // Counter tracks piggyback on event boundaries: events are dense on every
  // active core, and a pure-idle core has nothing new to sample anyway.
  if (m_.trace_->counter_due(id_, e.t1)) sample_counters();
}

void Core::sample_counters() {
  const auto& s = m_.stats_[id_];
  const uint64_t t = now();
  const auto rec = [&](obs::CounterId cid, uint64_t v) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kCounter;
    e.core = static_cast<int16_t>(id_);
    e.aux = static_cast<uint16_t>(cid);
    e.t0 = e.t1 = t;
    e.arg = v;
    m_.trace_->record(e);
  };
  rec(obs::CounterId::kBusy, s.busy);
  rec(obs::CounterId::kStall, s.stall_total());
  rec(obs::CounterId::kIdle, s.idle);
  rec(obs::CounterId::kDcacheMisses, s.dcache_misses);
  rec(obs::CounterId::kNocBytes, s.noc_bytes_sent);
}

uint64_t Core::sdram_port_wait(uint64_t occupancy) {
  if (m_.cfg_.noc_model != NocModel::kMesh) return 0;
  return m_.sdram_.reserve_port(now(), occupancy) - now();
}

uint64_t CoreStats::*Core::read_bucket(MemClass c) const {
  return c == MemClass::kSync ? &CoreStats::stall_sync_read
                              : &CoreStats::stall_shared_read;
}

void Core::compute(uint64_t instructions) {
  if (instructions == 0) return;
  const uint64_t trace_t0 = now();
  auto& s = m_.stats_[id_];
  auto& cs = *m_.cores_[id_];
  const auto& t = m_.cfg_.timing;
  s.instructions += instructions;
  // Deterministic expected-value accounting of the background load.
  cs.imiss_acc += instructions * m_.cfg_.profile.imiss_per_mille;
  cs.priv_acc += instructions * m_.cfg_.profile.priv_miss_per_mille;
  const uint64_t imiss = cs.imiss_acc / 1000;
  const uint64_t pmiss = cs.priv_acc / 1000;
  cs.imiss_acc %= 1000;
  cs.priv_acc %= 1000;
  s.busy += instructions;
  s.stall_ifetch += imiss * t.imiss_penalty;
  s.stall_private_read += pmiss * t.priv_miss_penalty;
  m_.sched_.advance(id_, instructions + imiss * t.imiss_penalty +
                             pmiss * t.priv_miss_penalty);
  if (m_.tracing()) {
    trace(obs::EventKind::kCompute, trace_t0, 0, 0, 0, instructions);
  }
}

void Core::idle(uint64_t cycles) {
  const uint64_t trace_t0 = now();
  m_.stats_[id_].idle += cycles;
  m_.sched_.advance(id_, cycles);
  if (m_.tracing()) trace(obs::EventKind::kIdle, trace_t0);
}

void Machine::PollWatch::on_watched_post(uint64_t arrival) {
  // A posted write arrives after its poster's clock (a NoC delivery holds
  // the destination port for at least one cycle), so this read is later
  // than every event executed so far.
  sched.wake_by(core, polls.first_read_at(arrival));
}

uint32_t Core::repoll_u32(Addr a, MemClass c, uint64_t& backoff,
                          uint32_t backoff_max) {
  PollSchedule polls{now(), backoff, backoff_max, m_.cfg_.timing.lm_load};
  // Sleeping is exact only where no one else can write the word except by
  // a posted write (own local memory), where nothing watches the skipped
  // decision points, and while a poll before the watchdog remains: the
  // last one runs the step loop below, which throws the watchdog's error.
  if (m_.tile_of(a) != id_ || m_.sched_.observed() || !polls.advances() ||
      polls.next_read() >= m_.cfg_.max_cycles) {
    idle(backoff);
    backoff = PollSchedule::next_backoff(backoff, backoff_max);
    return load_u32(a, c);
  }
  // Until a write to the word arrives, every poll reads the value just
  // rejected. Sleep to the first poll that can see an in-flight write, or
  // to the last poll before the watchdog; a later post to the word lowers
  // the wake time through the watch.
  MemModule& lm = *m_.lms_[id_];
  Machine::PollWatch& watch = m_.cores_[id_]->watch;
  watch.polls = polls;
  PollSchedule last = polls;
  last.skip_below(m_.cfg_.max_cycles);
  uint64_t wake = last.read;
  const uint64_t pending = lm.first_pending_arrival(a, 4);
  if (pending != UINT64_MAX) wake = std::min(wake, polls.first_read_at(pending));
  lm.watch(a, 4, &watch);
  m_.sched_.sleep_until(id_, wake);
  lm.unwatch();
  // Woken at one of the schedule's reads: charge the polls slept through
  // as the step loop would have (an idle backoff and a load each), then
  // take the read itself.
  polls.skip_to(now());
  PMC_CHECK(polls.read == now());
  auto& s = m_.stats_[id_];
  s.loads += polls.polls;
  s.busy += polls.polls * polls.load;
  s.idle += polls.idled;
  backoff = polls.backoff;
  uint32_t v = 0;
  lm.read(now(), a, &v, 4);
  return v;
}

void Core::cached_access(Addr a, void* rd_out, const void* wr_data, size_t n) {
  auto& s = m_.stats_[id_];
  auto& cs = *m_.cores_[id_];
  auto& cache = cs.dcache;
  const auto& t = m_.cfg_.timing;
  const uint32_t lb = cache.line_bytes();
  size_t done = 0;
  while (done < n) {
    const Addr addr = a + static_cast<Addr>(done);
    const Addr line = cache.line_base(addr);
    const size_t in_line = std::min<size_t>(n - done, line + lb - addr);
    uint8_t* data = cache.lookup(line);
    if (data != nullptr) {
      s.dcache_hits++;
      const uint64_t trace_t0 = now();
      charge(t.cache_hit, 0, &CoreStats::stall_shared_read);
      if (m_.tracing()) trace(obs::EventKind::kCacheHit, trace_t0, line, lb);
    } else {
      s.dcache_misses++;
      const uint64_t trace_t0 = now();
      if (m_.tracing()) trace(obs::EventKind::kCacheMiss, trace_t0, line, lb);
      // Per-core scratch, not a local: heap-owning objects may not live on a
      // fiber stack across the charge() yields below (see CoreState).
      Cache::Victim& victim = cs.victim_scratch;
      victim.dirty = false;
      data = cache.install(line, &victim);
      uint64_t pre_stall = 0;
      if (victim.dirty) {
        // Post the writeback; the fill waits for the bus slot. The victim
        // line is a *different* SDRAM range than the access — footprint it,
        // or exploration would treat the eviction as invisible.
        const uint64_t start =
            m_.sdram_.reserve_port(now(), lb / 4);
        m_.sdram_.post_write(start + t.sdram_line_wb_visible, victim.addr,
                             victim.data.data(), victim.data.size());
        m_.sched_.note_access(id_, victim.addr,
                              static_cast<uint32_t>(victim.data.size()),
                              AccessKind::kWrite, /*sync=*/false);
        s.writebacks++;
        pre_stall += t.sdram_line_wb_cost;
        if (m_.tracing()) {
          trace(obs::EventKind::kWriteback, now(), victim.addr,
                static_cast<uint32_t>(victim.data.size()), 0,
                start + t.sdram_line_wb_visible);
        }
      }
      // The fill samples SDRAM when the request reaches it (half the fill
      // latency); the rest is the response flight. In-flight writes arriving
      // later than the sample point are genuinely missed.
      const uint64_t fill_req = std::max<uint64_t>(t.sdram_line_fill / 2, 1);
      auto bucket = wr_data != nullptr ? &CoreStats::stall_write
                                       : &CoreStats::stall_shared_read;
      const uint64_t fill_t0 = now();
      charge(1, pre_stall + fill_req - 1, bucket);
      m_.sched_.note_access(id_, line, lb, AccessKind::kRead, /*sync=*/false);
      m_.sdram_.read(now(), line, data, lb);
      charge(0, t.sdram_line_fill - fill_req, bucket);
      if (m_.tracing()) trace(obs::EventKind::kCacheFill, fill_t0, line, lb);
    }
    const size_t off = addr - line;
    if (wr_data != nullptr) {
      std::memcpy(data + off, static_cast<const uint8_t*>(wr_data) + done,
                  in_line);
      cache.mark_dirty(line);
    } else {
      std::memcpy(static_cast<uint8_t*>(rd_out) + done, data + off, in_line);
    }
    done += in_line;
  }
}

void Core::uncached_access(Addr a, void* rd_out, const void* wr_data, size_t n,
                           MemClass c) {
  const auto& t = m_.cfg_.timing;
  // Uncached SDRAM traffic moves word by word over the shared bus.
  const bool sync = c == MemClass::kSync;
  size_t done = 0;
  while (done < n) {
    const size_t chunk = std::min<size_t>(4 - ((a + done) % 4), n - done);
    const Addr chunk_addr = a + static_cast<Addr>(done);
    if (wr_data != nullptr) {
      // Mesh model only: posted uncached stores drain through the shared
      // SDRAM port one word at a time, so contenders queue (a no-op wait
      // under kFlat, preserving its timing exactly).
      charge(1, sdram_port_wait(1) + t.sdram_write_cost - 1,
             &CoreStats::stall_write);
      m_.sched_.note_access(id_, chunk_addr, static_cast<uint32_t>(chunk),
                            AccessKind::kWrite, sync);
      m_.sdram_.post_write(now() + t.sdram_write_visible, chunk_addr,
                           static_cast<const uint8_t*>(wr_data) + done, chunk);
    } else {
      // Sample at request arrival (half the round trip), not at completion.
      const uint64_t req = std::max<uint64_t>(t.sdram_read / 2, 1);
      charge(1, req - 1, read_bucket(c));
      m_.sched_.note_access(id_, chunk_addr, static_cast<uint32_t>(chunk),
                            AccessKind::kRead, sync);
      m_.sdram_.read(now(), chunk_addr,
                     static_cast<uint8_t*>(rd_out) + done, chunk);
      charge(0, t.sdram_read - req, read_bucket(c));
    }
    done += chunk;
  }
}

void Core::cluster_access(Addr a, void* rd_out, const void* wr_data, size_t n,
                          MemClass c) {
  const auto& t = m_.cfg_.timing;
  MemModule& cl = *m_.cluster_;
  const bool sync = c == MemClass::kSync;
  // Word-interleaved banks behind a logarithmic interconnect: word-at-a-time
  // like the uncached SDRAM path, but a few cycles each and effects are
  // immediate (the interconnect is the only distance — there is no posted
  // store buffer between the core and the SRAM).
  size_t done = 0;
  while (done < n) {
    const size_t chunk = std::min<size_t>(4 - ((a + done) % 4), n - done);
    const Addr chunk_addr = a + static_cast<Addr>(done);
    // Mesh model only: contenders for the same bank group queue one cycle of
    // service each (a no-op under kFlat, keeping fixed costs bit-identical).
    uint64_t wait = 0;
    if (m_.cfg_.noc_model == NocModel::kMesh) {
      wait = cl.reserve_port(now(), 1) - now();
    }
    if (wr_data != nullptr) {
      charge(1, wait + t.cluster_store - 1, &CoreStats::stall_write);
      m_.sched_.note_access(id_, chunk_addr, static_cast<uint32_t>(chunk),
                            AccessKind::kWrite, sync);
      cl.write(now(), chunk_addr,
               static_cast<const uint8_t*>(wr_data) + done, chunk);
    } else {
      charge(1, wait + t.cluster_load - 1, read_bucket(c));
      m_.sched_.note_access(id_, chunk_addr, static_cast<uint32_t>(chunk),
                            AccessKind::kRead, sync);
      cl.read(now(), chunk_addr, static_cast<uint8_t*>(rd_out) + done, chunk);
    }
    done += chunk;
  }
}

void Core::access(Addr a, void* rd_out, const void* wr_data, size_t n,
                  MemClass c) {
  PMC_CHECK(n > 0);
  const AccessKind kind =
      wr_data != nullptr ? AccessKind::kWrite : AccessKind::kRead;
  const bool sync = c == MemClass::kSync;
  const int tile = m_.tile_of(a);
  const bool in_cluster =
      m_.cluster_ != nullptr && m_.cluster_->contains(a, n);
  // Cluster SRAM is shared L1: by construction it needs no SDRAM-cache copy,
  // so it stays uncached even in cache_shared machines.
  const bool cached = tile < 0 && !in_cluster &&
                      c == MemClass::kSharedData && m_.cfg_.cache_shared;
  // Cached traffic moves line-at-a-time through SDRAM (fills read and
  // writebacks write whole lines), so its footprint is line-aligned: false
  // sharing is a real dependence under SWCC.
  uint64_t fp_addr = a;
  uint32_t fp_len = static_cast<uint32_t>(n);
  if (cached) {
    const auto& cache = m_.cores_[id_]->dcache;
    const uint32_t lb = cache.line_bytes();
    fp_addr = cache.line_base(a);
    fp_len = static_cast<uint32_t>(
        cache.line_base(a + static_cast<Addr>(n) - 1) + lb - fp_addr);
  }
  // Memory effects happen between this call's clock advances (e.g. a posted
  // write is enqueued after its cost was charged), so record the footprint
  // both entering and leaving: the enclosing advances — and the next advance
  // after the trailing effect — must not be treated as independent of this
  // access by schedule exploration. Chunked paths additionally note each
  // module touch so mid-access segments carry their own effects.
  m_.sched_.note_access(id_, fp_addr, fp_len, kind, sync);
  const uint64_t trace_t0 = now();
  const obs::EventKind trace_kind =
      wr_data != nullptr ? obs::EventKind::kStore : obs::EventKind::kLoad;
  auto& s = m_.stats_[id_];
  if (wr_data != nullptr) {
    s.stores++;
  } else {
    s.loads++;
  }
  if (tile >= 0) {
    PMC_CHECK_MSG(tile == id_,
                  "core " << id_ << " cannot read/write tile " << tile
                          << "'s local memory directly: the interconnect is "
                             "write-only (use remote_write)");
    const auto& t = m_.cfg_.timing;
    MemModule& lm = *m_.lms_[tile];
    const uint64_t words = (n + 3) / 4;  // single-cycle per word on the LMB
    if (wr_data != nullptr) {
      charge(words * t.lm_store, 0, &CoreStats::stall_write);
      lm.write(now(), a, wr_data, n);
    } else {
      charge(words * t.lm_load, 0, read_bucket(c));
      lm.read(now(), a, rd_out, n);
    }
    m_.sched_.note_access(id_, fp_addr, fp_len, kind, sync);
    if (m_.tracing()) {
      trace(trace_kind, trace_t0, a, static_cast<uint32_t>(n),
            static_cast<uint16_t>(c));
    }
    return;
  }
  if (in_cluster) {
    cluster_access(a, rd_out, wr_data, n, c);
    m_.sched_.note_access(id_, fp_addr, fp_len, kind, sync);
    if (m_.tracing()) {
      trace(trace_kind, trace_t0, a, static_cast<uint32_t>(n),
            static_cast<uint16_t>(c));
    }
    return;
  }
  PMC_CHECK_MSG(m_.sdram_.contains(a, n), "unmapped address " << a);
  if (cached) {
    cached_access(a, rd_out, wr_data, n);
  } else {
    uncached_access(a, rd_out, wr_data, n, c);
  }
  m_.sched_.note_access(id_, fp_addr, fp_len, kind, sync);
  if (m_.tracing()) {
    trace(trace_kind, trace_t0, a, static_cast<uint32_t>(n),
          static_cast<uint16_t>(c));
  }
}

uint8_t Core::load_u8(Addr a, MemClass c) {
  uint8_t v;
  access(a, &v, nullptr, 1, c);
  return v;
}

uint32_t Core::load_u32(Addr a, MemClass c) {
  PMC_CHECK_MSG(a % 4 == 0, "misaligned u32 load");
  uint32_t v;
  access(a, &v, nullptr, 4, c);
  return v;
}

void Core::store_u8(Addr a, uint8_t v, MemClass c) {
  access(a, nullptr, &v, 1, c);
}

void Core::store_u32(Addr a, uint32_t v, MemClass c) {
  PMC_CHECK_MSG(a % 4 == 0, "misaligned u32 store");
  access(a, nullptr, &v, 4, c);
}

void Core::read_block(Addr a, void* out, size_t n, MemClass c) {
  access(a, out, nullptr, n, c);
}

void Core::write_block(Addr a, const void* data, size_t n, MemClass c) {
  access(a, nullptr, data, n, c);
}

uint64_t Core::remote_write(int dst_tile, Addr dst_addr, const void* data,
                            size_t n) {
  m_.sched_.note_access(id_, dst_addr, static_cast<uint32_t>(n),
                        AccessKind::kWrite, /*sync=*/false);
  PMC_CHECK(dst_tile >= 0 && dst_tile < m_.cfg_.num_cores);
  PMC_CHECK_MSG(dst_tile != id_, "remote_write to own tile: use store");
  MemModule& dst = *m_.lms_[dst_tile];
  PMC_CHECK(dst.contains(dst_addr, n));
  auto& s = m_.stats_[id_];
  const auto& t = m_.cfg_.timing;
  const uint64_t trace_t0 = now();
  // Sender enqueues the packet into its network interface and proceeds.
  charge(1, t.noc_send_cost, &CoreStats::stall_write);
  sim::Noc::Delivery dv;
  const uint64_t arrival = m_.noc_.deliver(now(), id_, dst_tile, dst, n, &dv);
  dst.post_write(arrival, dst_addr, data, n);
  s.remote_writes++;
  s.noc_bytes_sent += n;
  m_.sched_.note_access(id_, dst_addr, static_cast<uint32_t>(n),
                        AccessKind::kWrite, /*sync=*/false);
  if (m_.tracing()) {
    // The deterministic NoC model reveals the arrival at send time, so one
    // event carries the whole flow arc (the exporter adds the arrow).
    trace(obs::EventKind::kNocSend, trace_t0, dst_addr,
          static_cast<uint32_t>(n), static_cast<uint16_t>(dst_tile), arrival);
    if (dv.link_stall + dv.port_wait != 0) {
      // Contention is an instant companion event: len carries the link
      // stall, arg the destination-port wait (both in cycles).
      trace(obs::EventKind::kNocQueue, now(), dst_addr,
            static_cast<uint32_t>(dv.link_stall),
            static_cast<uint16_t>(dst_tile), dv.port_wait);
    }
  }
  return arrival;
}

void Core::dma_read(Addr src, void* out, size_t n, MemClass c) {
  PMC_CHECK(n > 0);
  const bool sync = c == MemClass::kSync;
  m_.sched_.note_access(id_, src, static_cast<uint32_t>(n), AccessKind::kRead,
                        sync);
  PMC_CHECK_MSG(m_.sdram_.contains(src, n), "dma_read is SDRAM-only");
  const auto& t = m_.cfg_.timing;
  const uint64_t words = (n + 3) / 4;
  // Setup round trip, sample at request arrival, then pipelined streaming.
  const uint64_t req = std::max<uint64_t>(t.sdram_read / 2, 1);
  const uint64_t trace_t0 = now();
  charge(1, req - 1, read_bucket(c));
  m_.sched_.note_access(id_, src, static_cast<uint32_t>(n), AccessKind::kRead,
                        sync);
  m_.sdram_.read(now(), src, out, n);
  charge(0, t.sdram_read - req + words * t.dma_per_word, read_bucket(c));
  m_.stats_[id_].loads++;
  m_.sched_.note_access(id_, src, static_cast<uint32_t>(n), AccessKind::kRead,
                        sync);
  if (m_.tracing()) {
    trace(obs::EventKind::kDmaRead, trace_t0, src, static_cast<uint32_t>(n),
          static_cast<uint16_t>(c));
  }
}

uint64_t Core::dma_write(Addr dst, const void* data, size_t n, MemClass c) {
  PMC_CHECK(n > 0);
  const bool sync = c == MemClass::kSync;
  m_.sched_.note_access(id_, dst, static_cast<uint32_t>(n), AccessKind::kWrite,
                        sync);
  PMC_CHECK_MSG(m_.sdram_.contains(dst, n), "dma_write is SDRAM-only");
  const auto& t = m_.cfg_.timing;
  const uint64_t words = (n + 3) / 4;
  const uint64_t trace_t0 = now();
  charge(1, t.sdram_write_cost - 1 + words * t.dma_per_word,
         &CoreStats::stall_write);
  const uint64_t start = m_.sdram_.reserve_port(now(), words);
  const uint64_t arrival = start + t.sdram_write_visible;
  m_.sched_.note_access(id_, dst, static_cast<uint32_t>(n), AccessKind::kWrite,
                        sync);
  m_.sdram_.post_write(arrival, dst, data, n);
  m_.stats_[id_].stores++;
  if (m_.tracing()) {
    trace(obs::EventKind::kDmaWrite, trace_t0, dst, static_cast<uint32_t>(n),
          static_cast<uint16_t>(c), arrival);
  }
  return arrival;
}

void Core::charge_stall(uint64_t cycles, StallBucket bucket) {
  const uint64_t trace_t0 = now();
  switch (bucket) {
    case StallBucket::kSharedRead:
      charge(0, cycles, &CoreStats::stall_shared_read);
      break;
    case StallBucket::kSyncRead:
      charge(0, cycles, &CoreStats::stall_sync_read);
      break;
    case StallBucket::kWrite:
      charge(0, cycles, &CoreStats::stall_write);
      break;
    case StallBucket::kFlush:
      charge(0, cycles, &CoreStats::stall_flush);
      break;
  }
  if (cycles != 0 && m_.tracing()) {
    trace(obs::EventKind::kWait, trace_t0, 0, 0,
          static_cast<uint16_t>(bucket));
  }
}

uint64_t Core::cache_wbinval(Addr a, size_t n) {
  auto& s = m_.stats_[id_];
  auto& cache = m_.cores_[id_]->dcache;
  const auto& t = m_.cfg_.timing;
  const uint32_t lb = cache.line_bytes();
  // Footprint the whole line-aligned range as a write: which lines actually
  // write back depends on private cache state, so the conservative extent
  // keeps exploration sound without leaking cache internals.
  const Addr fp_base = cache.line_base(a);
  const uint32_t fp_len = static_cast<uint32_t>(
      cache.line_base(a + static_cast<Addr>(n) - 1) + lb - fp_base);
  m_.sched_.note_access(id_, fp_base, fp_len, AccessKind::kWrite,
                        /*sync=*/false);
  const uint64_t trace_t0 = now();
  uint16_t traced_lines = 0;
  // Per-core scratch: a vector local would sit on the fiber stack across the
  // charge() yields in the loop (see CoreState::wb_scratch).
  std::vector<uint8_t>& dirty = m_.cores_[id_]->wb_scratch;
  uint64_t last_arrival = 0;
  for (Addr line = cache.line_base(a); line < a + n; line += lb) {
    uint64_t stall = t.cache_op_per_line;
    if (cache.wbinval_line(line, &dirty)) {
      s.lines_flushed++;
      ++traced_lines;
      if (!dirty.empty()) {
        const uint64_t start = m_.sdram_.reserve_port(now(), lb / 4);
        const uint64_t arrival = start + t.sdram_line_wb_visible;
        m_.sched_.note_access(id_, line, lb, AccessKind::kWrite,
                              /*sync=*/false);
        m_.sdram_.post_write(arrival, line, dirty.data(), dirty.size());
        last_arrival = std::max(last_arrival, arrival);
        s.writebacks++;
        stall += t.sdram_line_wb_cost;
        if (m_.tracing()) {
          trace(obs::EventKind::kWriteback, now(), line, lb, 0, arrival);
        }
      }
    }
    charge(0, stall, &CoreStats::stall_flush);
  }
  m_.sched_.note_access(id_, fp_base, fp_len, AccessKind::kWrite,
                        /*sync=*/false);
  if (m_.tracing()) {
    trace(obs::EventKind::kFlush, trace_t0, fp_base, fp_len, traced_lines);
  }
  return last_arrival;
}

void Core::wait_until(uint64_t t, StallBucket bucket) {
  const uint64_t t_now = now();
  if (t > t_now) charge_stall(t - t_now, bucket);
}

void Core::cache_inval(Addr a, size_t n) {
  auto& s = m_.stats_[id_];
  auto& cache = m_.cores_[id_]->dcache;
  const auto& t = m_.cfg_.timing;
  const uint32_t lb = cache.line_bytes();
  // Invalidation touches only the private cache; the later fill performs
  // the shared-memory read. Footprint it as a read of the range so the
  // segment stays observable (as before) and conservatively ordered against
  // writers, without claiming a write it never does.
  const Addr fp_base = cache.line_base(a);
  const uint32_t fp_len = static_cast<uint32_t>(
      cache.line_base(a + static_cast<Addr>(n) - 1) + lb - fp_base);
  m_.sched_.note_access(id_, fp_base, fp_len, AccessKind::kRead,
                        /*sync=*/false);
  const uint64_t trace_t0 = now();
  uint16_t traced_lines = 0;
  for (Addr line = cache.line_base(a); line < a + n; line += lb) {
    if (cache.inval_line(line)) {
      s.lines_flushed++;
      ++traced_lines;
    }
    charge(0, t.cache_op_per_line, &CoreStats::stall_flush);
  }
  if (m_.tracing()) {
    trace(obs::EventKind::kFlush, trace_t0, fp_base, fp_len, traced_lines);
  }
}

uint32_t Core::atomic_swap(Addr a, uint32_t value) {
  m_.sched_.note_access(id_, a, 4, AccessKind::kAtomic, /*sync=*/true);
  PMC_CHECK(a % 4 == 0);
  PMC_CHECK_MSG(m_.sdram_.contains(a, 4), "atomics live on the SDRAM port");
  const auto& t = m_.cfg_.timing;
  const uint64_t total = t.sdram_read + t.atomic_extra;
  const uint64_t req = std::max<uint64_t>(total / 2, 1);
  const uint64_t trace_t0 = now();
  // Mesh model only: the atomic unit serializes contenders on the shared
  // SDRAM port (atomic_extra cycles of service each); kFlat keeps the
  // original fixed-cost path.
  charge(1, sdram_port_wait(t.atomic_extra) + req - 1,
         &CoreStats::stall_sync_read);
  m_.stats_[id_].atomics++;
  const uint32_t old = m_.sdram_.atomic_swap_u32(now(), a, value);
  m_.sched_.note_access(id_, a, 4, AccessKind::kAtomic, /*sync=*/true);
  charge(0, total - req, &CoreStats::stall_sync_read);
  if (m_.tracing()) trace(obs::EventKind::kAtomic, trace_t0, a, 4, 0);
  return old;
}

uint32_t Core::atomic_add(Addr a, uint32_t delta) {
  m_.sched_.note_access(id_, a, 4, AccessKind::kAtomic, /*sync=*/true);
  PMC_CHECK(a % 4 == 0);
  PMC_CHECK_MSG(m_.sdram_.contains(a, 4), "atomics live on the SDRAM port");
  const auto& t = m_.cfg_.timing;
  const uint64_t total = t.sdram_read + t.atomic_extra;
  const uint64_t req = std::max<uint64_t>(total / 2, 1);
  const uint64_t trace_t0 = now();
  // Mesh model only: the atomic unit serializes contenders on the shared
  // SDRAM port (atomic_extra cycles of service each); kFlat keeps the
  // original fixed-cost path.
  charge(1, sdram_port_wait(t.atomic_extra) + req - 1,
         &CoreStats::stall_sync_read);
  m_.stats_[id_].atomics++;
  const uint32_t old = m_.sdram_.atomic_add_u32(now(), a, delta);
  m_.sched_.note_access(id_, a, 4, AccessKind::kAtomic, /*sync=*/true);
  charge(0, total - req, &CoreStats::stall_sync_read);
  if (m_.tracing()) trace(obs::EventKind::kAtomic, trace_t0, a, 4, 1);
  return old;
}

uint32_t Core::atomic_cas(Addr a, uint32_t expected, uint32_t desired) {
  m_.sched_.note_access(id_, a, 4, AccessKind::kAtomic, /*sync=*/true);
  PMC_CHECK(a % 4 == 0);
  PMC_CHECK_MSG(m_.sdram_.contains(a, 4), "atomics live on the SDRAM port");
  const auto& t = m_.cfg_.timing;
  const uint64_t total = t.sdram_read + t.atomic_extra;
  const uint64_t req = std::max<uint64_t>(total / 2, 1);
  const uint64_t trace_t0 = now();
  // Mesh model only: the atomic unit serializes contenders on the shared
  // SDRAM port (atomic_extra cycles of service each); kFlat keeps the
  // original fixed-cost path.
  charge(1, sdram_port_wait(t.atomic_extra) + req - 1,
         &CoreStats::stall_sync_read);
  m_.stats_[id_].atomics++;
  const uint32_t old = m_.sdram_.atomic_cas_u32(now(), a, expected, desired);
  m_.sched_.note_access(id_, a, 4, AccessKind::kAtomic, /*sync=*/true);
  charge(0, total - req, &CoreStats::stall_sync_read);
  if (m_.tracing()) trace(obs::EventKind::kAtomic, trace_t0, a, 4, 2);
  return old;
}

}  // namespace pmc::sim
