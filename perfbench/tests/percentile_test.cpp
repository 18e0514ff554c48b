#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "percentile.hpp"

namespace perfbench {
namespace {

std::vector<double>
one_to(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    // Shuffled, so summarize must sort for itself.
    std::shuffle(v.begin(), v.end(), std::mt19937(7));
    return v;
}

TEST(Percentile, SamplesBeyondUsesNearestRank)
{
    EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
    EXPECT_EQ(samples_beyond(999, 0.99), 9u);
    EXPECT_EQ(samples_beyond(100, 0.90), 10u);
    EXPECT_EQ(samples_beyond(20, 0.50), 10u);
    EXPECT_EQ(samples_beyond(1, 0.50), 0u);
}

TEST(Percentile, ThousandSamplesReportP99)
{
    const TimingSummary s = summarize(one_to(1000));
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tail_pct, 99.0);
    EXPECT_EQ(s.tail, 990.0);
}

TEST(Percentile, TooFewForP99FallsBackToP90)
{
    const TimingSummary s = summarize(one_to(999));
    EXPECT_EQ(s.n, 999u);
    EXPECT_EQ(s.tail_pct, 90.0);
    EXPECT_EQ(s.tail, 900.0);
}

TEST(Percentile, TwentySamplesSupportOnlyTheMedian)
{
    EXPECT_EQ(summarize(one_to(20)).tail_pct, 50.0);
    EXPECT_EQ(summarize(one_to(20)).tail, 10.0);
    const TimingSummary s = summarize(one_to(19));
    EXPECT_EQ(s.tail_pct, 0.0);
    EXPECT_EQ(s.p50, 10.0);
}

TEST(Percentile, EmptyInput)
{
    const TimingSummary s = summarize({});
    EXPECT_EQ(s.n, 0u);
    EXPECT_EQ(s.tail_pct, 0.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, MedianAveragesTheMiddlePair)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

}  // namespace
}  // namespace perfbench
