// pmc_bench's result files: the flat BENCH_pmc.json report, the metric
// list read back from BENCHMARK.json, and the --compare gate over two sets
// of reports. All reading goes through fuzz/json_read, the repository's one
// JSON parser.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pmc::pmcbench {

/// A JSON number carrying every significant digit of `v` ("%.17g"). NaN and
/// infinities, which JSON cannot represent, become 0 (obs::json_number's
/// policy).
std::string json_num(double v);

/// One flat {"key": number, ...} object, members in the given order.
using FlatReport = std::vector<std::pair<std::string, double>>;
std::string flat_json(const FlatReport& report);
/// Parses a flat object. Throws util::CheckFailure ("origin:line: ...") on
/// malformed JSON or a member that is not a number.
std::map<std::string, double> read_flat_json(const std::string& text,
                                             const std::string& origin);

/// An end-to-end metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0;  // allowed worsening, as a share of the parent's median
};

struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
};

/// Reads the workload names and end-to-end metrics of BENCHMARK.json.
/// Throws util::CheckFailure on a malformed file.
BenchmarkSpec read_benchmark_spec(const std::string& path);

/// Report keys that are pure functions of the inputs: they must match
/// exactly between any two reports made with the same seed.
bool is_deterministic_key(const std::string& key);

/// --compare=A,B: A is the parent's and B the change's directory, each
/// holding at least two BENCH_pmc*.json reports. Prints medians, quartiles
/// and a verdict per (workload, end-to-end metric) and returns the exit
/// code: 0, 1 on a `worse` verdict, a failed iteration or a deterministic
/// key that differs, 2 on unusable input.
int compare_dirs(const std::string& a, const std::string& b,
                 const BenchmarkSpec& spec);

}  // namespace pmc::pmcbench
