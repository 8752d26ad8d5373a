/**
 * @file
 * Unit tests for src/common: saturating counters, RNG determinism,
 * stats primitives and address helpers.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace emc
{
namespace
{

TEST(TypesTest, LineAlignment)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(lineNum(128), 2u);
}

TEST(TypesTest, PageAlignment)
{
    EXPECT_EQ(pageAlign(4095), 0u);
    EXPECT_EQ(pageAlign(4096), 4096u);
    EXPECT_EQ(pageNum(8192), 2u);
}

TEST(TypesTest, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(64), 6u);
}

TEST(SatCounterTest, SaturatesAtBounds)
{
    SatCounter c(3, 0);
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 7u);
}

TEST(SatCounterTest, TopTwoBitsSemanticsFor3Bits)
{
    // Paper Section 4.2: trigger when either of the top two bits of
    // the 3-bit counter is set, i.e. value >= 2.
    SatCounter c(3, 0);
    EXPECT_FALSE(c.topTwoBitsSet());
    c.increment();  // 1
    EXPECT_FALSE(c.topTwoBitsSet());
    c.increment();  // 2 = 0b010
    EXPECT_TRUE(c.topTwoBitsSet());
    c.increment();  // 3
    EXPECT_TRUE(c.topTwoBitsSet());
    c.increment();  // 4 = 0b100
    EXPECT_TRUE(c.topTwoBitsSet());
    c.reset(1);
    EXPECT_FALSE(c.topTwoBitsSet());
}

TEST(SatCounterTest, ThresholdTest)
{
    SatCounter c(3, 4);
    EXPECT_TRUE(c.aboveThreshold(3));
    EXPECT_FALSE(c.aboveThreshold(4));
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(RngTest, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(StatsTest, ScalarAccumulates)
{
    Scalar s;
    s.add();
    s.add(2.5);
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(StatsTest, AverageMean)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    EXPECT_DOUBLE_EQ(a.mean(), 15.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(StatsTest, HistogramBuckets)
{
    Histogram h(4, 10.0);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(100);  // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.samples(), 4u);
}

TEST(StatsTest, HistogramPercentile)
{
    Histogram h(10, 10.0);
    for (int i = 0; i < 100; ++i)
        h.sample(i);  // uniform over [0, 100)
    // Rank-k sample lands in bucket k/10; percentile reports its
    // midpoint.
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 45.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.10), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 95.0);
}

TEST(StatsTest, HistogramPercentileEmpty)
{
    Histogram h(4, 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 0.0);
}

TEST(StatsTest, HistogramPercentileOverflow)
{
    Histogram h(4, 10.0);
    h.sample(5);
    h.sample(500);
    h.sample(700);  // two of three samples past the last bucket
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_DOUBLE_EQ(h.maxSample(), 700.0);
    // Median rank falls in-range; tail ranks land in the overflow and
    // must report the recorded max, not clamp to the bucket range.
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 700.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.34), 5.0);
}

TEST(StatsTest, HistogramPercentileNeverExceedsEverySample)
{
    // One sample in a wide bucket: the bucket midpoint (16) lies above
    // it, and rank floor(0.5 * 1) = 0 used to pick that bucket anyway.
    Histogram one(64, 32.0);
    one.sample(3);
    EXPECT_DOUBLE_EQ(one.percentile(0.50), 3.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.99), 3.0);

    Histogram zeros(64, 32.0);
    for (int i = 0; i < 500; ++i)
        zeros.sample(0);
    EXPECT_DOUBLE_EQ(zeros.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(zeros.percentile(0.50), 0.0);
    EXPECT_DOUBLE_EQ(zeros.percentile(0.99), 0.0);
}

TEST(StatsTest, HistogramResetClearsMax)
{
    Histogram h(4, 10.0);
    h.sample(900);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.maxSample(), 0.0);
    h.sample(15);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 15.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 15.0);
}

TEST(StatsTest, StatDumpRoundTrip)
{
    StatDump d;
    d.put("a.b", 1.5);
    EXPECT_TRUE(d.has("a.b"));
    EXPECT_DOUBLE_EQ(d.get("a.b"), 1.5);
    EXPECT_DOUBLE_EQ(d.get("missing", -1), -1.0);
    EXPECT_NE(d.format().find("a.b"), std::string::npos);
}

} // namespace
} // namespace emc
