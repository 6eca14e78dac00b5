// Shared helpers for the figure-regeneration harnesses.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "obs/json.h"
#include "util/check.h"
#include "util/table.h"

namespace pmc::bench {

/// Minimal flag parsing: --name=value. A value that is not a whole decimal
/// integer ("two", "3x", "") throws util::CheckFailure naming the flag.
inline int64_t flag_int(int argc, char** argv, const char* name,
                        int64_t def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const char* text = argv[i] + prefix.size();
      const char* end = text + std::strlen(text);
      int64_t value = 0;
      const auto [stop, err] = std::from_chars(text, end, value);
      if (err != std::errc() || stop != end) {
        throw util::CheckFailure(prefix + text + " is not an integer");
      }
      return value;
    }
  }
  return def;
}

/// String-valued --name=value flag; def (may be nullptr) when absent.
inline const char* flag_str(int argc, char** argv, const char* name,
                            const char* def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

/// Splits a comma-separated flag value ("a.cfg,b.cfg") into items, skipping
/// empty segments.
inline std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  if (s == nullptr) return out;
  const std::string str = s;
  size_t start = 0;
  while (start < str.size()) {
    size_t comma = str.find(',', start);
    if (comma == std::string::npos) comma = str.size();
    if (comma > start) out.push_back(str.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

inline bool flag_set(int argc, char** argv, const char* name) {
  const std::string f = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (f == argv[i]) return true;
  }
  return false;
}

/// Throws util::CheckFailure naming the first argument that is not in
/// `known`. An entry is a flag's form: "name=" takes a value (--name=value,
/// the value may be empty), "name" is bare (--name); a flag with both forms
/// is listed twice. A CLI calls this before reading any flag, so a typo or
/// a flag in the wrong form fails instead of falling back to a default.
inline void require_known_flags(int argc, char** argv,
                                std::initializer_list<std::string_view> known) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view form =
        arg.starts_with("--")
            ? arg.substr(2, eq == std::string_view::npos ? eq : eq - 1)
            : "";
    if (std::find(known.begin(), known.end(), form) == known.end()) {
      throw util::CheckFailure("unknown flag '" + std::string(arg) + "'");
    }
  }
}

/// require_known_flags for a harness main: prints the offending argument to
/// stderr and returns false instead of throwing, so the harness can exit 2
/// before running anything.
inline bool known_flags_only(int argc, char** argv,
                             std::initializer_list<std::string_view> known) {
  try {
    require_known_flags(argc, argv, known);
    return true;
  } catch (const util::CheckFailure& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

/// Percentage string with one decimal.
inline std::string pc(double num, double den) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%5.1f%%", den == 0 ? 0.0 : 100.0 * num / den);
  return buf;
}

inline std::string fmt_u64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// Machine-readable result sink for the perf trajectory (bench/README.md).
///
/// Every harness accumulates its headline numbers here and calls
/// maybe_write() at the end of main. With `--json` (or `--json=PATH`) on the
/// command line the metrics are written as one flat JSON object to
/// BENCH_<name>.json in the working directory (or PATH); without the flag
/// nothing is emitted, so default output is unchanged. The `golden` ctest
/// label compares the deterministic harnesses' files with bench/baselines/.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Non-finite values are written as 0, which keeps the file valid JSON.
  void add(const std::string& key, double value) {
    metrics_.emplace_back(key, obs::json_number(value));
  }
  void add(const std::string& key, uint64_t value) {
    metrics_.emplace_back(key, obs::json_number(value));
  }
  void add(const std::string& key, int value) {
    add(key, static_cast<uint64_t>(value < 0 ? 0 : value));
  }
  /// String-valued metric; quoted and escaped on output.
  void add(const std::string& key, const std::string& value) {
    metrics_.emplace_back(key, obs::json_quote(value));
  }

  /// The report's default file name ("BENCH_<name>.json").
  std::string default_path() const { return "BENCH_" + name_ + ".json"; }

  /// Writes the report to `path` unconditionally. Returns false on an I/O
  /// error (callers treat that as a harness failure). Every string is
  /// escaped and every non-numeric value literal is quoted on the way out,
  /// so the file is valid JSON by construction, whatever the keys contain.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "!! cannot open %s for writing\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s", obs::json_quote(name_).c_str());
    for (const auto& [key, value] : metrics_) {
      std::fprintf(f, ",\n  %s: %s", obs::json_quote(key).c_str(),
                   value.c_str());
    }
    std::fprintf(f, "\n}\n");
    const bool ok = std::fclose(f) == 0;
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

  /// Writes BENCH_<name>.json if --json[=PATH] was passed; no flag, no file.
  bool maybe_write(int argc, char** argv) const {
    std::string path;
    const std::string prefix = "--json=";
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        path = default_path();
      } else if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
        path = argv[i] + prefix.size();
        if (path.empty()) path = default_path();
      }
    }
    if (path.empty()) return true;
    return write_file(path);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> metrics_;  // key -> literal
};

/// The Fig. 8 time decomposition of one run, aggregated over cores.
struct Breakdown {
  uint64_t total = 0;  // Σ cycles over cores (busy + stalls + idle)
  uint64_t busy = 0;
  uint64_t ifetch = 0;
  uint64_t priv_read = 0;
  uint64_t shared_read = 0;
  uint64_t sync = 0;  // lock/barrier word stalls + backoff idle
  uint64_t write = 0;
  uint64_t flush = 0;

  static Breakdown from(const pmc::sim::CoreStats& s) {
    Breakdown b;
    b.busy = s.busy;
    b.ifetch = s.stall_ifetch;
    b.priv_read = s.stall_private_read;
    b.shared_read = s.stall_shared_read;
    b.sync = s.stall_sync_read + s.idle;
    b.write = s.stall_write;
    b.flush = s.stall_flush;
    b.total = b.busy + b.ifetch + b.priv_read + b.shared_read + b.sync +
              b.write + b.flush;
    return b;
  }
};

}  // namespace pmc::bench
