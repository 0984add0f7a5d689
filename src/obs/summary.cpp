#include "obs/summary.h"

#include <algorithm>

namespace cim::obs {

DurationSummary summarize(std::vector<sim::Duration> samples) {
  DurationSummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  auto rank = [&](double q) {
    // Nearest-rank: ceil(q * n), 1-based.
    std::size_t r = static_cast<std::size_t>(q * static_cast<double>(s.count));
    if (static_cast<double>(r) < q * static_cast<double>(s.count)) ++r;
    if (r == 0) r = 1;
    if (r > s.count) r = s.count;
    return samples[r - 1];
  };
  s.p50 = rank(0.50);
  s.p90 = rank(0.90);
  s.p99 = rank(0.99);
  double total = 0;
  for (sim::Duration d : samples) total += static_cast<double>(d.ns);
  s.mean_ns = total / static_cast<double>(s.count);
  return s;
}

}  // namespace cim::obs
