// Pins the measurement rules of perfbench/src/stats.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(TailPercentileTest, KeepsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(999), 98.0);
  EXPECT_EQ(TailPercentile(500), 98.0);
  EXPECT_EQ(TailPercentile(499), 97.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
}

TEST(TailPercentileTest, CapLimitsTheNamedPercentile) {
  EXPECT_EQ(TailPercentile(100000), 99.0);
  EXPECT_EQ(TailPercentile(100000, 99.9), 99.9);
  EXPECT_EQ(TailPercentile(2000, 99.9), 99.5);
}

TEST(TailPercentileTest, EveryChoiceHasTenBeyond) {
  for (size_t n = 20; n < 5000; n += 7) {
    const double p = TailPercentile(n);
    ASSERT_GT(p, 0.0);
    EXPECT_GE(SamplesBeyond(n, p), kTailSamples) << n;
  }
}

TEST(SummarizeTest, NearestRankOnKnownSamples) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, unsorted
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_p, 99.0);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(SummarizeTest, FailuresAsInfinityReachTheTail) {
  std::vector<double> v(990, 1.0);
  v.insert(v.end(), 10, 2.0);
  EXPECT_EQ(Summarize(&v).tail, 1.0);
  // Eleven failures among ~1000 samples are more than 1%: p99 is a miss.
  v.insert(v.end(), 11, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(Summarize(&v).tail));
}

TEST(RateLadderTest, GeometricRungs) {
  RateLadder ladder;
  ladder.base = 100.0;
  ladder.steps_per_octave = 8;
  EXPECT_DOUBLE_EQ(ladder.Rate(0), 100.0);
  EXPECT_DOUBLE_EQ(ladder.Rate(8), 200.0);
  EXPECT_DOUBLE_EQ(ladder.Rate(16), 400.0);
}

TEST(SearchLadderTest, FindsTheHighestPassingRungFromAnyStart) {
  RateLadder ladder;
  for (int threshold = 0; threshold <= ladder.max_rung; ++threshold) {
    for (int start : {0, 10, 32, 79}) {
      std::set<int> seen;
      const LadderResult r = SearchLadder(ladder, start, [&](int rung) {
        EXPECT_TRUE(seen.insert(rung).second) << "rung ran twice: " << rung;
        return rung <= threshold;
      });
      EXPECT_EQ(r.best_rung, threshold) << "start " << start;
      EXPECT_DOUBLE_EQ(r.best_rate, ladder.Rate(threshold));
      // An octave climb or descent per 8 rungs, then 3 bisection steps.
      EXPECT_LE(r.tried.size(), 16u);
    }
  }
}

TEST(SearchLadderTest, NothingPasses) {
  RateLadder ladder;
  const LadderResult r = SearchLadder(ladder, 40, [](int) { return false; });
  EXPECT_EQ(r.best_rung, -1);
  EXPECT_EQ(r.best_rate, 0.0);
  EXPECT_EQ(r.tried.back(), ladder.min_rung);
}

TEST(SearchLadderTest, EverythingPasses) {
  RateLadder ladder;
  const LadderResult r = SearchLadder(ladder, 40, [](int) { return true; });
  EXPECT_EQ(r.best_rung, ladder.max_rung);
}

TEST(BacklogTest, FlatBacklogIsNotGrowing) {
  std::vector<double> flat;
  for (int i = 0; i < 30; ++i) flat.push_back(5 + (i % 3));
  EXPECT_FALSE(BacklogGrowing(flat, 8.0));
}

TEST(BacklogTest, LinearGrowthIsGrowing) {
  std::vector<double> growing;
  for (int i = 0; i < 30; ++i) growing.push_back(10.0 * i);
  EXPECT_TRUE(BacklogGrowing(growing, 8.0));
}

TEST(BacklogTest, SmallDriftWithinSlackIsNotGrowing) {
  std::vector<double> drift;
  for (int i = 0; i < 30; ++i) drift.push_back(2.0 + 0.2 * i);
  EXPECT_FALSE(BacklogGrowing(drift, 8.0));
}

}  // namespace
}  // namespace perfbench
