// Unit tests: duration order statistics.
#include <gtest/gtest.h>

#include "obs/summary.h"

namespace cim::obs {
namespace {

TEST(Summary, EmptyInput) {
  auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, sim::Duration{});
}

TEST(Summary, SingleSample) {
  auto s = summarize({sim::milliseconds(5)});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, sim::milliseconds(5));
  EXPECT_EQ(s.p50, sim::milliseconds(5));
  EXPECT_EQ(s.p99, sim::milliseconds(5));
  EXPECT_EQ(s.max, sim::milliseconds(5));
  EXPECT_DOUBLE_EQ(s.mean_ns, 5e6);
}

TEST(Summary, PercentilesOfUniformRange) {
  std::vector<sim::Duration> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(sim::Duration{i});
  auto s = summarize(std::move(samples));
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, sim::Duration{1});
  EXPECT_EQ(s.p50, sim::Duration{50});
  EXPECT_EQ(s.p90, sim::Duration{90});
  EXPECT_EQ(s.p99, sim::Duration{99});
  EXPECT_EQ(s.max, sim::Duration{100});
  EXPECT_DOUBLE_EQ(s.mean_ns, 50.5);
}

TEST(Summary, NearestRankRoundsUp) {
  // 3 samples: p50 is the 2nd (ceil(0.5*3)=2), p90 the 3rd.
  auto s = summarize({sim::Duration{10}, sim::Duration{20}, sim::Duration{30}});
  EXPECT_EQ(s.p50, sim::Duration{20});
  EXPECT_EQ(s.p90, sim::Duration{30});
}

TEST(Summary, UnsortedInputHandled) {
  auto s = summarize({sim::Duration{30}, sim::Duration{10}, sim::Duration{20}});
  EXPECT_EQ(s.min, sim::Duration{10});
  EXPECT_EQ(s.max, sim::Duration{30});
}

}  // namespace
}  // namespace cim::obs
