// Summary helpers for the benchmark's samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `v`, interpolating linearly between the
/// two closest ranks of the sorted sample; 0 when `v` is empty.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double a = v[lo];
  const double b = v[hi];
  return a + (b - a) * (pos - static_cast<double>(lo));
}

template <class T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

/// Summaries of per-segment values that follow the quiet part of a run.
/// Contention from other tenants of a shared host (CPU steal, memory
/// bandwidth) only makes a segment slower, and it comes in episodes that can
/// cover most of a run, so a median over segments follows it.  The decile on
/// the fast side follows the program as long as a tenth of the run is quiet,
/// and a change to the program moves it as it moves every segment: the
/// lower decile of a cost (a time), the upper one of a rate.
inline constexpr double kQuietShare = 0.1;

template <class T>
double quiet_cost(const std::vector<T>& v) {
  return quantile(v, kQuietShare);
}
template <class T>
double quiet_rate(const std::vector<T>& v) {
  return quantile(v, 1 - kQuietShare);
}

/// num / den, or 0 when den is 0 (a layer the workload never reaches).
inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Relative change of `x` against `base` (x / base - 1); 0 without a base.
inline double overhead(double x, double base) {
  return base != 0 ? x / base - 1 : 0;
}

}  // namespace perfbench
