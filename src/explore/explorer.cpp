#include "explore/explorer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "util/check.h"

namespace pmc::explore {

const char* to_string(DporMode mode) {
  switch (mode) {
    case DporMode::kOff: return "off";
    case DporMode::kSleepSet: return "sleepset";
  }
  return "?";
}

std::optional<DporMode> dpor_mode_from_string(std::string_view text) {
  if (text == "off") return DporMode::kOff;
  if (text == "sleepset") return DporMode::kSleepSet;
  return std::nullopt;
}

namespace {

/// Completed schedules between two ExploreConfig::progress callbacks.
constexpr uint64_t kProgressStride = 64;

/// One sleeping alternative: core `core`'s pending segment (footprint `fp`)
/// was already explored from a commuting sibling branch; do not branch it
/// again until a dependent segment wakes it (or the core runs by default).
struct SleepEntry {
  int core = -1;
  sim::Footprint fp;
};
using SleepSet = std::vector<SleepEntry>;

/// A frontier node of the (possibly reduced) schedule tree: the decision
/// prefix to replay plus the sleep set inherited from its parent. A stolen
/// entry carries its sleep set, so the reduced tree — and with it every
/// total — stays job-count-invariant.
struct FrontierNode {
  DecisionString prefix;
  SleepSet sleep;
};

struct ExpandStats {
  uint64_t delay_pruned = 0;
  uint64_t dpor_pruned = 0;
};

bool asleep(const SleepSet& sleep, int core) {
  for (const SleepEntry& e : sleep) {
    if (e.core == core) return true;
  }
  return false;
}

/// Footprint of candidate `core`'s pending segment at step `p`: the segment
/// it runs at its first dispatch >= p in this run. The core is not dispatched
/// in between, so its program state — and with it the addresses the segment
/// touches — is the same whether it runs at `p` (the branch) or at its
/// default spot. nullptr when the dispatch or its footprint fell outside the
/// recording window: callers must then assume dependence.
const sim::Footprint* pending_segment(const ReplayPolicy& policy, uint64_t p,
                                      int core) {
  for (uint64_t q = p;; ++q) {
    const int chosen = policy.chosen_core(q);
    if (chosen < 0) return nullptr;  // beyond the recording window
    if (chosen == core) return policy.segment_footprint(q);
  }
}

/// One worker's slice of the frontier. Owner pushes/pops at the back (LIFO
/// keeps the search depth-first); thieves pop at the front (FIFO hands them
/// the shallowest — largest — pending subtree). A plain mutex per deque is
/// ample: each queue operation amortizes a full program re-execution.
struct Shard {
  std::mutex mu;
  std::deque<FrontierNode> dq;
};

/// Runs `schedule` once on `runner`. When `fully_applied` is non-null it
/// reports whether every override matched a decision step — false means the
/// string is stale and the outcome describes some other schedule.
RunOutcome replay_on(const ScheduleRunner& runner,
                     const DecisionString& schedule, uint64_t horizon,
                     bool* fully_applied) {
  // Replays only consume the verdict, never the DPOR recording.
  ReplayPolicy policy(schedule, horizon, /*record_footprints=*/false);
  RunOutcome out = runner(policy);
  // An override whose choice no longer matches the candidate count aborts
  // the run mid-way (unconsumed as well), so unused_overrides() == 0 is
  // exactly "this outcome belongs to the requested schedule".
  if (fully_applied != nullptr) {
    *fully_applied = policy.unused_overrides() == 0;
  }
  return out;
}

/// Enumerates the children of `node` from its completed run `policy`.
/// Pure function of (node, the run's recording, cfg), which is what makes
/// the tree identical on every worker, whoever expands a node.
void expand_node(const FrontierNode& node, const ReplayPolicy& policy,
                 const ExploreConfig& cfg, std::vector<FrontierNode>* children,
                 ExpandStats* stats) {
  if (static_cast<int>(node.prefix.size()) >= cfg.preemption_bound) return;
  // This run's decisions up to the horizon are shared by every child
  // (identical override prefix ⇒ identical deterministic execution up to
  // the new override), so the recorded candidate counts enumerate the
  // children exactly. Children extend strictly after the last override,
  // which generates every bounded schedule exactly once.
  const uint64_t start = node.prefix.empty() ? 0 : node.prefix.back().step + 1;
  const uint64_t end = std::min(policy.decision_points(), cfg.horizon);
  const bool dpor = cfg.dpor == DporMode::kSleepSet;
  SleepSet sleep = node.sleep;  // evolves along the node's default path
  for (uint64_t p = start; p < end; ++p) {
    const int alternatives = policy.candidates_at(p) - 1;
    if (alternatives > 0) {
      if (cfg.prune_delay && policy.pure_segment(p)) {
        stats->delay_pruned += static_cast<uint64_t>(alternatives);
      } else {
        const sim::Footprint* def_fp =
            dpor ? policy.segment_footprint(p) : nullptr;
        SleepSet branched;  // alternatives branched earlier at this step
        for (int c = 1; c <= alternatives; ++c) {
          const int cand = policy.candidate_core(p, c);
          const sim::Footprint* cand_fp = nullptr;
          if (dpor) {
            if (asleep(sleep, cand)) {
              // This core's pending segment was already explored from a
              // commuting sibling branch; re-branching it here would reach
              // a Mazurkiewicz-equivalent schedule from the other side.
              ++stats->dpor_pruned;
              continue;
            }
            cand_fp = pending_segment(policy, p, cand);
            const sim::Footprint& cfp =
                cand_fp != nullptr ? *cand_fp : sim::Footprint::wildcard();
            const sim::Footprint& dfp =
                def_fp != nullptr ? *def_fp : sim::Footprint::wildcard();
            // Prune only a reordering of two *effectful* segments whose
            // footprints commute: (p, c) is then equivalent to branching
            // one step later (or, if the candidate commutes all the way to
            // its default dispatch, to not branching at all) — the retained
            // class representative is the branch right before the first
            // dependent segment. When either segment is pure delay that
            // argument does not apply: dispatching the candidate stalls the
            // bypassed default core and the frontier warp shifts every
            // later posted-write arrival, which can flip timing races that
            // footprints cannot see. Pure-delay preemptions are only ever
            // skipped by the explicit prune_delay trade-off.
            if (!cfp.empty() && !dfp.empty() && !conflicts(cfp, dfp)) {
              ++stats->dpor_pruned;
              continue;
            }
          }
          FrontierNode child;
          child.prefix = node.prefix;
          child.prefix.push_back({p, c});
          if (dpor) {
            // A pure or unknown pending segment is treated as a wildcard
            // here: the child inherits no sleep entries (its timing-only
            // move could interact with anything) and the candidate itself
            // never goes to sleep — only effectful, known segments carry
            // the commutation argument.
            const bool cand_known =
                cand_fp != nullptr && !cand_fp->empty() &&
                !cand_fp->is_wildcard();
            const sim::Footprint& cfp =
                cand_known ? *cand_fp : sim::Footprint::wildcard();
            // Inherit every sleeping entry that commutes with this move;
            // dependent ones wake. Earlier commuting siblings go to sleep:
            // their reorderings against this branch are covered from their
            // own subtrees.
            for (const SleepEntry& e : sleep) {
              if (!conflicts(e.fp, cfp)) child.sleep.push_back(e);
            }
            for (const SleepEntry& e : branched) {
              if (!conflicts(e.fp, cfp)) child.sleep.push_back(e);
            }
            std::sort(child.sleep.begin(), child.sleep.end(),
                      [](const SleepEntry& a, const SleepEntry& b) {
                        return a.core < b.core;
                      });
            if (cand_known) branched.push_back({cand, *cand_fp});
          }
          children->push_back(std::move(child));
        }
      }
    }
    // Advance the sleep set past the default segment at p: an entry whose
    // core just ran is consumed (its pending segment is behind us), and a
    // dependent segment wakes everything it conflicts with.
    if (dpor && !sleep.empty()) {
      const int chosen = policy.chosen_core(p);
      const sim::Footprint* seg = policy.segment_footprint(p);
      const sim::Footprint& sfp =
          seg != nullptr ? *seg : sim::Footprint::wildcard();
      std::erase_if(sleep, [&](const SleepEntry& e) {
        return chosen < 0 || e.core == chosen || conflicts(e.fp, sfp);
      });
    }
  }
}

}  // namespace

Explorer::Explorer(RunnerFactory factory, int jobs)
    : factory_(std::move(factory)), jobs_(jobs < 1 ? 1 : jobs) {}

Explorer::Explorer(ScheduleRunner runner, int jobs)
    : Explorer([runner = std::move(runner)]() { return runner; }, jobs) {}

ExploreReport Explorer::explore(const ExploreConfig& cfg) {
  PMC_CHECK(cfg.preemption_bound >= 0);
  const int jobs = jobs_;
  std::deque<Shard> shards(static_cast<size_t>(jobs));

  // Shared counters. `in_flight` counts enqueued-but-unfinished prefixes:
  // a worker increments it for every child *before* retiring the parent, so
  // it can only reach zero once the whole tree has been processed.
  std::atomic<uint64_t> claimed{0};
  std::atomic<uint64_t> explored{0};
  std::atomic<uint64_t> pruned{0};
  std::atomic<uint64_t> dpor_pruned{0};
  std::atomic<uint64_t> failing{0};
  std::atomic<uint64_t> in_flight{1};
  std::atomic<uint64_t> first_fail_at{0};
  std::atomic<uint64_t> max_points{0};
  std::atomic<bool> truncated{false};

  // Canonical failure: lexicographic minimum over everything seen so far,
  // plus every failing string (sorted after the join).
  std::mutex best_mu;
  std::vector<DecisionString> fails;
  DecisionString best;
  std::string best_message;
  bool have_best = false;

  shards[0].dq.push_back({});

  // Out-of-work workers block here instead of spinning over the shards.
  // Pushers notify; the bounded wait covers the (benign) race of a push
  // landing between a failed scan and the wait.
  std::mutex idle_mu;
  std::condition_variable idle_cv;

  std::vector<uint64_t> steals(static_cast<size_t>(jobs), 0);

  // One distinct-trace set shared by all workers, so the curve and the
  // progress stream read a live count. One lock per schedule, each
  // amortized by a full program re-execution.
  std::mutex traces_mu;
  std::unordered_set<uint64_t> traces;
  std::vector<uint64_t> curve;  // indexed by log2(explored) sample slot

  auto worker = [&](int self) {
    Shard& own = shards[static_cast<size_t>(self)];
    const ScheduleRunner runner = factory_();
    while (in_flight.load() != 0) {
      std::optional<FrontierNode> task;
      {
        std::lock_guard<std::mutex> lk(own.mu);
        if (!own.dq.empty()) {
          task = std::move(own.dq.back());
          own.dq.pop_back();
        }
      }
      if (!task) {  // steal the oldest prefix from the next busy worker
        for (int k = 1; k < jobs && !task; ++k) {
          Shard& victim = shards[static_cast<size_t>((self + k) % jobs)];
          std::lock_guard<std::mutex> lk(victim.mu);
          if (!victim.dq.empty()) {
            task = std::move(victim.dq.front());
            victim.dq.pop_front();
            ++steals[static_cast<size_t>(self)];
          }
        }
      }
      if (!task) {
        std::unique_lock<std::mutex> lk(idle_mu);
        if (in_flight.load() == 0) break;
        idle_cv.wait_for(lk, std::chrono::milliseconds(1));
        continue;
      }

      if (claimed.fetch_add(1) >= cfg.max_schedules) {
        truncated.store(true);
        if (in_flight.fetch_sub(1) == 1) idle_cv.notify_all();
        continue;
      }
      ReplayPolicy policy(task->prefix, cfg.horizon,
                          /*record_footprints=*/cfg.dpor != DporMode::kOff);
      const RunOutcome out = runner(policy);
      const uint64_t done = explored.fetch_add(1) + 1;
      uint64_t distinct = 0;
      {
        std::lock_guard<std::mutex> lk(traces_mu);
        traces.insert(out.trace_hash);
        distinct = traces.size();
        // Power-of-two samples make the discovery curve O(log n) regardless
        // of the space size, which is what a saturation plot needs.
        if ((done & (done - 1)) == 0) {
          size_t idx = 0;
          for (uint64_t d = done; d >>= 1;) ++idx;
          if (curve.size() <= idx) curve.resize(idx + 1, 0);
          curve[idx] = distinct;
        }
      }
      if (cfg.progress && done % kProgressStride == 0) {
        cfg.progress({done, pruned.load(), dpor_pruned.load(), failing.load(),
                      distinct});
      }
      uint64_t prev = max_points.load();
      while (prev < policy.decision_points() &&
             !max_points.compare_exchange_weak(prev, policy.decision_points())) {
      }
      if (!out.ok) {
        if (failing.fetch_add(1) == 0) first_fail_at.store(done);
        // Canonicalize to the lexicographic minimum, so the reported
        // failure is a property of the space, not of the traversal order.
        std::lock_guard<std::mutex> lk(best_mu);
        fails.push_back(task->prefix);
        if (!have_best || lex_less(task->prefix, best)) {
          best = task->prefix;
          best_message = out.message;
          have_best = true;
        }
      }

      // Child enumeration is a pure function of this run, so the (reduced)
      // tree is the same whichever worker expands the node; only the
      // traversal order depends on the job count.
      ExpandStats stats;
      std::vector<FrontierNode> children;
      expand_node(*task, policy, cfg, &children, &stats);
      if (stats.delay_pruned != 0) pruned.fetch_add(stats.delay_pruned);
      if (stats.dpor_pruned != 0) dpor_pruned.fetch_add(stats.dpor_pruned);
      if (!children.empty()) {
        in_flight.fetch_add(children.size());
        {
          std::lock_guard<std::mutex> lk(own.mu);
          for (auto& c : children) own.dq.push_back(std::move(c));
        }
        idle_cv.notify_all();
      }
      if (in_flight.fetch_sub(1) == 1) idle_cv.notify_all();
    }
  };

  // Worker 0 runs on the caller: at jobs = 1 no thread is created, and a
  // stateful runner lives on the thread that called explore().
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<size_t>(jobs - 1));
  for (int w = 1; w < jobs; ++w) helpers.emplace_back(worker, w);
  worker(0);
  for (auto& t : helpers) t.join();

  ExploreReport rep;
  rep.explored = explored.load();
  rep.pruned = pruned.load();
  rep.dpor_pruned = dpor_pruned.load();
  rep.truncated = truncated.load();
  rep.failing = failing.load();
  rep.first_failing = std::move(best);
  rep.first_failing_message = std::move(best_message);
  rep.schedules_to_first_failure = first_fail_at.load();
  rep.max_decision_points = max_points.load();
  rep.distinct_traces = traces.size();
  // The tree is the same at any job count, so the sorted set is too.
  rep.trace_hashes.assign(traces.begin(), traces.end());
  std::sort(rep.trace_hashes.begin(), rep.trace_hashes.end());
  // Close the curve and the progress stream on the final totals. With
  // jobs > 1 the sample at `explored` can predate the insert of a worker
  // still holding a smaller count, so the last point is set, not sampled.
  rep.hb_curve = std::move(curve);
  if (rep.explored > 0) {
    if ((rep.explored & (rep.explored - 1)) != 0) rep.hb_curve.push_back(0);
    rep.hb_curve.back() = rep.distinct_traces;
  }
  if (cfg.progress) {
    cfg.progress({rep.explored, rep.pruned, rep.dpor_pruned, rep.failing,
                  rep.distinct_traces});
  }
  rep.worker_steals = std::move(steals);
  rep.failing_schedules = std::move(fails);
  std::sort(rep.failing_schedules.begin(), rep.failing_schedules.end(),
            lex_less);
  return rep;
}

DecisionString Explorer::minimize(DecisionString failing, uint64_t horizon) {
  // Worker 0's runner serves every round, so a stateful runner keeps its
  // snapshot pool for the whole reduction.
  const ScheduleRunner own = factory_();
  while (!failing.empty()) {
    // Evaluate this round's single-override removals in index order and
    // accept the lowest index that still fails with all overrides applied.
    // Once some worker finds one at index h, no worker claims an index
    // above h: at jobs = 1 this replays exactly what a first-accept scan
    // replays, and at any job count it accepts the same index.
    const size_t n = failing.size();
    std::atomic<size_t> next{0};
    std::atomic<size_t> hit{n};
    auto eval = [&](const ScheduleRunner& runner) {
      for (size_t i = next.fetch_add(1); i < hit.load();
           i = next.fetch_add(1)) {
        DecisionString shorter = failing;
        shorter.erase(shorter.begin() + static_cast<ptrdiff_t>(i));
        bool applied = false;
        if (!replay_on(runner, shorter, horizon, &applied).ok && applied) {
          size_t cur = hit.load();
          while (i < cur && !hit.compare_exchange_weak(cur, i)) {
          }
        }
      }
    };
    // One runner per helper thread: stateful runners are not shareable.
    std::vector<std::thread> helpers;
    const size_t workers = std::min(static_cast<size_t>(jobs_), n);
    helpers.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) {
      helpers.emplace_back([&] { eval(factory_()); });
    }
    eval(own);
    for (auto& t : helpers) t.join();
    if (hit.load() == n) break;
    failing.erase(failing.begin() + static_cast<ptrdiff_t>(hit.load()));
  }
  return failing;
}

}  // namespace pmc::explore
