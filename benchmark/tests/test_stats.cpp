#include <gtest/gtest.h>

#include "stats.hpp"

namespace parcel::perf {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(101 - i));
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_reportable(999, 99.0));
  EXPECT_TRUE(tail_reportable(1000, 99.0));
  EXPECT_FALSE(tail_reportable(99, 90.0));
  EXPECT_TRUE(tail_reportable(100, 90.0));
  EXPECT_TRUE(tail_reportable(1, 50.0));
  EXPECT_FALSE(tail_reportable(0, 50.0));
}

// Reference values from Python's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  q = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);
  EXPECT_DOUBLE_EQ(q.spread(), 1.0);
  q = quartiles({4.0});
  EXPECT_DOUBLE_EQ(q.median, 4.0);
  EXPECT_DOUBLE_EQ(q.spread(), 0.0);
}

}  // namespace
}  // namespace parcel::perf
