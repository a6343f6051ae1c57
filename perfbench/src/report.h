#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One printed metric: value and unit, keyed by name in a MetricSet.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Name-ordered, so printing is canonical.
using MetricSet = std::map<std::string, Metric>;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Linearly interpolated percentile `p` (0-100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Ratio that reads 0 instead of dividing by zero: per-layer ratios of a
/// layer a workload leaves idle print as 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The benchmark's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
