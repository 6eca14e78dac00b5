#include "spans.h"

#include <cstdio>

#include "obs/json.h"
#include "report.h"
#include "util/check.h"

namespace pmc::pmcbench {

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t SpanLog::open(std::string name, int64_t iteration) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? 0 : open_.back();
  s.iteration = iteration;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  const uint64_t id = spans_.size();
  open_.push_back(id);
  return id;
}

void SpanLog::close(uint64_t id) {
  PMC_CHECK_MSG(!open_.empty() && open_.back() == id,
                "spans must close innermost first");
  open_.pop_back();
  spans_[id - 1].end_us = now_us();
}

void SpanLog::arg(uint64_t id, std::string key, double value) {
  spans_[id - 1].args.emplace_back(std::move(key), value);
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent - 1] += s.end_us - s.start_us;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end_us - s.start_us;
    std::string args = "\"span_id\":" + std::to_string(i + 1) +
                       ",\"parent_id\":" + std::to_string(s.parent) +
                       ",\"iteration\":" + std::to_string(s.iteration) +
                       ",\"self_us\":" + json_num(dur - child_us[i]);
    for (const auto& [k, v] : s.args) {
      args += "," + obs::json_quote(k) + ":" + json_num(v);
    }
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"cat\":\"pmc_bench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":{%s}}",
                 i == 0 ? "" : ",", obs::json_quote(s.name).c_str(),
                 json_num(s.start_us).c_str(), json_num(dur).c_str(),
                 args.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pmc::pmcbench
