#include "model/trace.h"

#include <sstream>

#include "util/check.h"

namespace pmc::model {

TraceValidator::TraceValidator(int num_procs, int num_locs,
                               const std::vector<uint64_t>& initial,
                               const Options& opts)
    : exec_(num_procs, num_locs, initial), opts_(opts) {}

void TraceValidator::flag(const std::string& msg) {
  violations_.push_back({num_events_, msg});
}

void TraceValidator::on_event(const TraceEvent& e) {
  if (saturated_) {
    ++num_events_;
    return;
  }
  if (exec_.num_ops() >= opts_.max_ops) {
    saturated_ = true;
    ++num_events_;
    return;
  }
  switch (e.kind) {
    case TraceEvent::Kind::kWrite: {
      const OpId id = exec_.write(e.proc, e.loc, e.value);
      // In a data-race-free trace, all writes to one location are totally
      // ordered (§IV-D); the previous write must be ≺G the new one.
      if (!exec_.write_chained(e.loc)) {
        const auto& ws = exec_.writes_to(e.loc);
        const OpId prev = ws[ws.size() - 2];
        std::ostringstream os;
        os << "write/write race on v" << e.loc << ": "
           << exec_.op(prev).describe() << " unordered with "
           << exec_.op(id).describe();
        flag(os.str());
      }
      break;
    }
    case TraceEvent::Kind::kRead: {
      const auto legal = exec_.legal_sources_now(e.proc, e.loc);
      // Greedy: commit to the newest legal source with the observed value.
      OpId source = kNoOp;
      for (auto it = legal.rbegin(); it != legal.rend(); ++it) {
        if (exec_.op(*it).value == e.value) {
          source = *it;
          break;
        }
      }
      if (source == kNoOp) {
        std::ostringstream os;
        os << "p" << e.proc << " read v" << e.loc << "=" << e.value
           << " which no legal write provides (Def. 12); legal:";
        for (OpId w : legal) os << " " << exec_.op(w).describe();
        flag(os.str());
        // Keep the graph coherent: record the read without a source.
        exec_.read(e.proc, e.loc, e.value, kNoOp);
        break;
      }
      const OpId id = exec_.read(e.proc, e.loc, e.value, source);
      // A read whose last-write set has more than one element is a data
      // race (Definition 11).
      if (exec_.last_writes(id).size() > 1) {
        std::ostringstream os;
        os << "data race: |W_o| > 1 for " << exec_.op(id).describe();
        flag(os.str());
      }
      break;
    }
    case TraceEvent::Kind::kAcquire:
      exec_.acquire(e.proc, e.loc);
      break;
    case TraceEvent::Kind::kRelease:
      exec_.release(e.proc, e.loc);
      break;
    case TraceEvent::Kind::kFence:
      exec_.fence(e.proc);
      break;
  }
  ++num_events_;
}

void TraceValidator::on_events(const std::vector<TraceEvent>& events) {
  for (const auto& e : events) on_event(e);
}

std::string TraceValidator::first_violation() const {
  if (violations_.empty()) {
    if (!saturated_) return "";
    std::ostringstream os;
    os << "validation saturated after " << exec_.num_ops() << " ops";
    return os.str();
  }
  std::ostringstream os;
  os << "event " << violations_.front().event_index << ": "
     << violations_.front().message;
  return os.str();
}

}  // namespace pmc::model
