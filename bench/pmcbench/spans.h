// In-memory span log of a traced pmc_bench run, written at exit in Chrome
// trace-event format (opens in ui.perfetto.dev).
//
// Spans wrap the benchmark's own calls into each layer of the library
// (runtime, sim, model, explore, apps); nothing inside the library is
// instrumented. Spans nest strictly on the benchmark's thread, so a span's
// self time is its duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pmc::pmcbench {

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a child of the innermost open span; returns its id.
  uint64_t open(std::string name, int64_t iteration);
  /// Closes span `id`, which must be the innermost open one.
  void close(uint64_t id);
  /// Attaches a numeric argument (shown in the trace viewer's details).
  void arg(uint64_t id, std::string key, double value);

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span.
  /// Returns false on an I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    uint64_t parent = 0;  // 0: a root span
    int64_t iteration = -1;
    std::vector<std::pair<std::string, double>> args;
  };
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;    // span id = index + 1
  std::vector<uint64_t> open_;
};

/// RAII span; a no-op when the log is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t iteration)
      : log_(log), id_(log ? log->open(std::move(name), iteration) : 0) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(std::string key, double value) {
    if (log_ != nullptr) log_->arg(id_, std::move(key), value);
  }
  /// Closes the span early.
  void finish() {
    if (log_ == nullptr || closed_) return;
    closed_ = true;
    log_->close(id_);
  }

 private:
  SpanLog* log_;
  uint64_t id_;
  bool closed_ = false;
};

}  // namespace pmc::pmcbench
