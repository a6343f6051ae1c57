#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - std::floor(rank);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    // %.17g keeps every digit of the measured double; JSON has no NaN or
    // infinity, so those print as 0 (they only arise from empty inputs).
    double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
