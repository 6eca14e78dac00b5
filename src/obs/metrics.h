// Metrics registry: named counters, gauges, and power-of-two-bucket
// histograms with deterministic JSON export (DESIGN.md §11).
//
// This is the aggregation vocabulary the exploration stack reports through:
// explorer totals (explored/failing), per-worker steal counts,
// snapshot pool hits, shrink rounds, and per-back-end CoreStats sums all
// land in one registry that merges across workers/back-ends and renders as
// one JSON object. Storage is std::map so iteration — and therefore the
// exported document — is key-ordered and reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pmc::obs {

/// Fixed-shape histogram: bucket i counts values v with 2^(i-1) <= v < 2^i
/// (bucket 0 counts v < 1). Merging two histograms is bucket-wise addition,
/// so per-worker histograms combine exactly.
struct Histogram {
  static constexpr int kBuckets = 40;

  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  uint64_t buckets[kBuckets] = {};

  void observe(double v);
  void merge(const Histogram& other);
  double mean() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
  /// Approximate quantile (q in [0, 1]) read off the buckets: the selected
  /// bucket's upper bound, clamped to the observed [min, max] — exact when
  /// every observation in that bucket is equal (e.g. an all-zero series).
  double quantile(double q) const;
};

class MetricsRegistry {
 public:
  // Counters: monotonic uint64, merge by addition.
  void inc(const std::string& name, uint64_t by = 1) { counters_[name] += by; }
  uint64_t counter(const std::string& name) const;

  // Gauges: last-write-wins doubles, merge keeps the incoming value.
  void set_gauge(const std::string& name, double v) { gauges_[name] = v; }
  double gauge(const std::string& name) const;

  // Histograms.
  void observe(const std::string& name, double v) { histograms_[name].observe(v); }
  /// Folds an externally-maintained histogram (e.g. a MemModule's port-wait
  /// distribution) into the named one, bucket-wise.
  void merge_histogram(const std::string& name, const Histogram& h) {
    histograms_[name].merge(h);
  }
  const Histogram* histogram(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds `other` into this registry (counters add, gauges overwrite,
  /// histograms combine bucket-wise).
  void merge(const MetricsRegistry& other);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with key-sorted
  /// members; deterministic for identical contents.
  std::string to_json() const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pmc::obs
