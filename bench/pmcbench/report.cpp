#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/json_read.h"
#include "obs/json.h"
#include "stats.h"
#include "util/check.h"
#include "util/table.h"

namespace pmc::pmcbench {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string flat_json(const FlatReport& report) {
  std::string s = "{";
  for (size_t i = 0; i < report.size(); ++i) {
    s += i == 0 ? "\n  " : ",\n  ";
    s += obs::json_quote(report[i].first) + ": " + json_num(report[i].second);
  }
  return s + "\n}\n";
}

namespace {

double number(const fuzz::JsonValue& v, const std::string& origin,
              const std::string& field) {
  if (v.kind != fuzz::JsonValue::Kind::kNumber) {
    PMC_CHECK_MSG(false, origin << ":" << v.line << ": " << field
                                << " must be a number, got " << v.kind_name());
  }
  return std::strtod(v.literal.c_str(), nullptr);
}

}  // namespace

std::map<std::string, double> read_flat_json(const std::string& text,
                                             const std::string& origin) {
  const fuzz::JsonValue doc = fuzz::json_parse(text, origin);
  doc.require_object(origin, "report");
  std::map<std::string, double> out;
  for (const auto& [key, value] : doc.members) {
    out[key] = number(value, origin, key);
  }
  return out;
}

BenchmarkSpec read_benchmark_spec(const std::string& path) {
  const fuzz::JsonValue doc = fuzz::json_parse_file(path);
  BenchmarkSpec spec;
  for (const fuzz::JsonValue& w :
       doc.get("workloads", path, "").as_array(path, "workloads")) {
    spec.workloads.push_back(
        w.get("name", path, "workloads[].name").as_string(path, "name"));
  }
  for (const fuzz::JsonValue& m :
       doc.get("end_to_end", path, "").as_array(path, "end_to_end")) {
    MetricSpec ms;
    ms.name = m.get("name", path, "end_to_end[].name").as_string(path, "name");
    ms.unit = m.get("unit", path, "end_to_end[].unit").as_string(path, "unit");
    const std::string& better =
        m.get("better", path, "end_to_end[].better").as_string(path, "better");
    PMC_CHECK_MSG(better == "lower" || better == "higher",
                  path << ": " << ms.name << ".better must be lower|higher");
    ms.lower_is_better = better == "lower";
    ms.bound = number(m.get("bound", path, "end_to_end[].bound"), path,
                      ms.name + ".bound");
    spec.end_to_end.push_back(std::move(ms));
  }
  return spec;
}

bool is_deterministic_key(const std::string& key) {
  const auto ends_with = [&](const std::string& suffix) {
    return key.size() > suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with(".sim.makespan_cycles") || ends_with(".explore.schedules");
}

namespace {

struct Side {
  std::string dir;
  std::vector<std::string> files;
  std::vector<std::map<std::string, double>> reports;
};

/// Loads every BENCH_pmc*.json report directly inside `dir` (the traced
/// run's _layers/_spans files are not reports). False with a message on
/// unusable input.
bool load_side(const std::string& dir, Side* side) {
  namespace fs = std::filesystem;
  side->dir = dir;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (!e.is_regular_file() || name.rfind("BENCH_pmc", 0) != 0 ||
        name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0 ||
        name.find("_layers") != std::string::npos ||
        name.find("_spans") != std::string::npos) {
      continue;
    }
    side->files.push_back(e.path().string());
  }
  if (ec) {
    std::fprintf(stderr, "!! cannot list %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  std::sort(side->files.begin(), side->files.end());
  if (side->files.size() < 2) {
    std::fprintf(stderr,
                 "!! %s holds %zu BENCH_pmc*.json report(s); --compare needs "
                 "at least 2 per side\n",
                 dir.c_str(), side->files.size());
    return false;
  }
  for (const std::string& f : side->files) {
    std::ifstream in(f, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    side->reports.push_back(read_flat_json(buf.str(), f));
  }
  return true;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

}  // namespace

int compare_dirs(const std::string& a, const std::string& b,
                 const BenchmarkSpec& spec) {
  Side sides[2];
  try {
    if (!load_side(a, &sides[0]) || !load_side(b, &sides[1])) return 2;
  } catch (const util::CheckFailure& e) {
    std::fprintf(stderr, "!! %s\n", e.what());
    return 2;
  }
  int rc = 0;

  // Failed iterations and deterministic keys: exact, per report.
  std::map<double, std::map<std::string, double>> by_seed;  // first seen
  std::map<double, std::string> by_seed_file;
  for (const Side& side : sides) {
    for (size_t i = 0; i < side.reports.size(); ++i) {
      const auto& r = side.reports[i];
      for (const auto& [key, value] : r) {
        if (key.size() > 11 &&
            key.compare(key.size() - 11, 11, ".fail_ratio") == 0 &&
            value != 0) {
          std::printf("!! %s: %s = %g\n", side.files[i].c_str(), key.c_str(),
                      value);
          rc = 1;
        }
      }
      const auto seed_it = r.find("seed");
      const double seed = seed_it == r.end() ? 0 : seed_it->second;
      auto [ref, fresh] = by_seed.try_emplace(seed);
      if (fresh) by_seed_file[seed] = side.files[i];
      for (const auto& [key, value] : r) {
        if (!is_deterministic_key(key)) continue;
        const auto [it, inserted] = ref->second.try_emplace(key, value);
        if (!inserted && it->second != value) {
          std::printf("!! deterministic key %s differs at seed %g: %s has "
                      "%.17g, %s has %.17g\n",
                      key.c_str(), seed, by_seed_file[seed].c_str(),
                      it->second, side.files[i].c_str(), value);
          rc = 1;
        }
      }
    }
  }

  util::Table table;
  table.add_row({"workload", "metric", "A median", "A q1..q3", "B median",
                 "B q1..q3", "bound", "verdict"});
  for (const std::string& w : spec.workloads) {
    for (const MetricSpec& m : spec.end_to_end) {
      const std::string key = w + "." + m.name;
      std::vector<double> vals[2];
      for (int s = 0; s < 2; ++s) {
        for (const auto& r : sides[s].reports) {
          const auto it = r.find(key);
          if (it != r.end()) vals[s].push_back(it->second);
        }
      }
      if (vals[0].empty() && vals[1].empty()) continue;  // workload not run
      if (vals[0].size() < 2 || vals[1].size() < 2) {
        std::printf("!! %s: present in %zu report(s) of A and %zu of B; "
                    "needs 2 per side\n",
                    key.c_str(), vals[0].size(), vals[1].size());
        rc = rc == 0 ? 2 : rc;
        continue;
      }
      const Quartiles qa = quartiles(vals[0]);
      const Quartiles qb = quartiles(vals[1]);
      const Verdict v = verdict(qa, qb, m.bound, m.lower_is_better);
      if (v == Verdict::kWorse) rc = 1;
      table.add_row({w, m.name + " (" + m.unit + ")", fmt(qa.q2),
                     fmt(qa.q1) + ".." + fmt(qa.q3), fmt(qb.q2),
                     fmt(qb.q1) + ".." + fmt(qb.q3), fmt(m.bound),
                     to_string(v)});
    }
  }
  std::printf("A = %s (%zu reports), B = %s (%zu reports)\n\n%s\n",
              a.c_str(), sides[0].reports.size(), b.c_str(),
              sides[1].reports.size(), table.render().c_str());
  return rc;
}

}  // namespace pmc::pmcbench
