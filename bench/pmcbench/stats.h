// Order statistics and the regression verdict of the pmc_bench benchmark.
//
// Header-only so the unit tests check exactly the code the harness runs.
// quartiles() reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so a spread printed here equals the spread
// any Python tooling computes over the same numbers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pmc::pmcbench {

/// Median; the mean of the two middle values for an even count, 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// 1-based nearest rank of the `p`-th percentile among `n` > 0 samples.
inline size_t nearest_rank(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0);
  return std::clamp<size_t>(rank < 1 ? 1 : static_cast<size_t>(rank), 1, n);
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (0 when empty).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// Samples strictly above the nearest-rank percentile.
inline size_t samples_above(size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

struct Quartiles {
  double q1 = 0;
  double q2 = 0;  // the median
  double q3 = 0;
  /// Interquartile distance as a share of the median.
  double spread() const {
    if (q3 == q1) return 0;
    return q2 == 0 ? INFINITY : (q3 - q1) / std::fabs(q2);
  }
};

/// statistics.quantiles(v, n=4, method="exclusive"); a single value gives
/// three equal quartiles, no value gives zeros.
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

enum class Verdict { kBetter, kWorse, kUnresolved, kUnchanged };

inline const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kBetter: return "better";
    case Verdict::kWorse: return "worse";
    case Verdict::kUnresolved: return "unresolved";
    case Verdict::kUnchanged: return "unchanged";
  }
  return "?";
}

/// Verdict on `b` (the change) against `a` (the parent) for a metric whose
/// regression bound is `bound`, a share of a's median. A median shift past
/// the bound for the worse is `worse` even on noisy sides, so the gate never
/// hides a regression. A shift for the better counts only when the spreads
/// can support it: both within the bound, or b's interquartile range wholly
/// on the better side of a's. Otherwise a side whose spread exceeds the
/// bound cannot tell a change from noise and reads unresolved.
inline Verdict verdict(const Quartiles& a, const Quartiles& b, double bound,
                       bool lower_is_better) {
  const double scale = std::fabs(a.q2);
  const double diff = lower_is_better ? a.q2 - b.q2 : b.q2 - a.q2;  // > 0: b better
  if (-diff > bound * scale) return Verdict::kWorse;
  const bool noisy = a.spread() > bound || b.spread() > bound;
  const bool apart = lower_is_better ? b.q3 < a.q1 : b.q1 > a.q3;
  if (diff > bound * scale && (!noisy || apart)) return Verdict::kBetter;
  return noisy ? Verdict::kUnresolved : Verdict::kUnchanged;
}

}  // namespace pmc::pmcbench
