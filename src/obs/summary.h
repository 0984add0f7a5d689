// Order statistics over duration samples: the Section-6 formulas are
// worst-case bounds, so benches report full distributions under jitter to
// show where typical executions land relative to the bound.
#pragma once

#include <vector>

#include "sim/time.h"

namespace cim::obs {

struct DurationSummary {
  std::size_t count = 0;
  sim::Duration min{};
  sim::Duration p50{};
  sim::Duration p90{};
  sim::Duration p99{};
  sim::Duration max{};
  double mean_ns = 0.0;
};

/// Summarize a sample set (copied; input order irrelevant). Percentiles use
/// the nearest-rank method; empty input yields a zeroed summary.
DurationSummary summarize(std::vector<sim::Duration> samples);

}  // namespace cim::obs
