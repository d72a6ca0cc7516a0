/**
 * @file
 * Property and stress tests of the bounded-memory percentile sketch (the
 * one source of serving latency summaries): 0-, 1- and 2-sample edge
 * cases, exact-mode equivalence with the nearest-rank reference, an
 * order-independent exact-mode mean, the histogram
 * mode's asserted relative-error bound across heavy-tailed populations,
 * and a million-sample stress run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/streaming_percentiles.h"

namespace smartinf {
namespace {

/** Nearest-rank reference: the sorted sample at rank ceil(pct% * n),
 *  clamped into [1, n]. */
double
nearestRank(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double raw =
        std::ceil(pct / 100.0 * static_cast<double>(values.size()));
    const std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::max(raw, 1.0)), 1, values.size());
    return values[rank - 1];
}

const std::vector<double> kPcts = {0.0, 1.0, 25.0, 50.0, 90.0,
                                   95.0, 99.0, 99.9, 100.0};

TEST(StreamingPercentiles, EmptyPopulationReportsZeros)
{
    const StreamingPercentiles p;
    EXPECT_TRUE(p.exact());
    EXPECT_EQ(p.count(), 0);
    EXPECT_EQ(p.mean(), 0.0);
    EXPECT_EQ(p.minValue(), 0.0);
    EXPECT_EQ(p.maxValue(), 0.0);
    for (const double pct : kPcts)
        EXPECT_EQ(p.percentile(pct), 0.0);
}

TEST(StreamingPercentiles, ExactModeMatchesNearestRankBitForBit)
{
    Rng rng(7);
    std::vector<double> values;
    StreamingPercentiles p(512);
    for (int i = 0; i < 512; ++i) {
        // Heavy-tailed: exercise several decades.
        const double v = std::exp(rng.normal(0.0, 2.0));
        values.push_back(v);
        p.record(v);
    }
    ASSERT_TRUE(p.exact());
    for (const double pct : kPcts)
        EXPECT_EQ(p.percentile(pct), nearestRank(values, pct));
    // The mean sums the population in ascending order, whatever order it
    // was recorded in.
    std::sort(values.begin(), values.end());
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    EXPECT_EQ(p.mean(), sum / static_cast<double>(values.size()));
}

TEST(StreamingPercentiles, SingleSamplePopulation)
{
    StreamingPercentiles p;
    p.record(0.125);
    for (const double pct : kPcts)
        EXPECT_EQ(p.percentile(pct), 0.125);
    EXPECT_EQ(p.mean(), 0.125);
    EXPECT_EQ(p.minValue(), 0.125);
    EXPECT_EQ(p.maxValue(), 0.125);
}

TEST(StreamingPercentiles, TwoSamplesSplitAtTheMedianRank)
{
    // Nearest-rank: p50 of {1, 9} is rank ceil(0.5*2) = 1 => the smaller
    // sample; p95/p99 are rank 2 => the larger.
    StreamingPercentiles p;
    p.record(9.0);
    p.record(1.0);
    EXPECT_EQ(p.percentile(50.0), 1.0);
    EXPECT_EQ(p.percentile(95.0), 9.0);
    EXPECT_EQ(p.percentile(99.0), 9.0);
    EXPECT_EQ(p.mean(), 5.0);
    EXPECT_EQ(p.maxValue(), 9.0);
}

TEST(StreamingPercentiles, PercentilesSelectActualSamples)
{
    StreamingPercentiles p;
    for (int i = 100; i >= 1; --i)
        p.record(static_cast<double>(i));
    EXPECT_EQ(p.percentile(50.0), 50.0);
    EXPECT_EQ(p.percentile(95.0), 95.0);
    EXPECT_EQ(p.percentile(99.0), 99.0);
    EXPECT_EQ(p.maxValue(), 100.0);
}

TEST(StreamingPercentiles, ExactModeMeanSumsInAscendingOrder)
{
    // 1 + 1e-16 rounds back to 1, so summing in insertion order loses
    // both small samples; summing ascending keeps them (2e-16 rounds up to
    // one ulp of 1). The exact-mode mean is the ascending-order one.
    const double big = 1.0, tiny = 1e-16;
    const double inserted = ((big + tiny) + tiny) / 3.0;
    const double ascending = ((tiny + tiny) + big) / 3.0;
    ASSERT_NE(inserted, ascending);

    StreamingPercentiles p;
    p.record(big);
    p.record(tiny);
    p.record(tiny);
    ASSERT_TRUE(p.exact());
    EXPECT_EQ(p.mean(), ascending);
}

TEST(StreamingPercentiles, HistogramModeHonorsTheRelativeErrorBound)
{
    // Past the cap the sketch must stay within maxRelativeError() of the
    // exact nearest-rank answer, across distributions spanning decades.
    const double bound = StreamingPercentiles::maxRelativeError();
    EXPECT_LT(bound, 0.02); // the documented <2% guarantee

    struct Case {
        const char *name;
        double (*draw)(Rng &);
    };
    const Case cases[] = {
        {"lognormal", [](Rng &r) { return std::exp(r.normal(0.0, 2.0)); }},
        {"exponential",
         [](Rng &r) { return -std::log(1.0 - r.uniform()) * 0.3; }},
        {"uniform-wide", [](Rng &r) { return 1e-4 + r.uniform() * 1e3; }},
    };
    for (const Case &c : cases) {
        Rng rng(11);
        std::vector<double> values;
        StreamingPercentiles p(64); // tiny cap: histogram mode quickly
        for (int i = 0; i < 20000; ++i) {
            const double v = c.draw(rng);
            values.push_back(v);
            p.record(v);
        }
        ASSERT_FALSE(p.exact());
        for (const double pct : kPcts) {
            const double exact = nearestRank(values, pct);
            const double est = p.percentile(pct);
            if (exact < StreamingPercentiles::kMinValue) {
                EXPECT_LT(est, StreamingPercentiles::kMinValue) << c.name;
                continue;
            }
            EXPECT_NEAR(est, exact, exact * bound)
                << c.name << " p" << pct;
        }
        // Scalar aggregates stay exact in histogram mode.
        double sum = 0.0;
        for (const double v : values)
            sum += v;
        EXPECT_DOUBLE_EQ(p.mean(), sum / values.size());
        EXPECT_EQ(p.maxValue(),
                  *std::max_element(values.begin(), values.end()));
        EXPECT_EQ(p.minValue(),
                  *std::min_element(values.begin(), values.end()));
    }
}

TEST(StreamingPercentiles, OutOfRangeValuesClampInsteadOfMisbinning)
{
    StreamingPercentiles p(2);
    p.record(0.0);              // below kMinValue: underflow bin
    p.record(-5.0);             // negative: underflow bin
    p.record(1e9);              // above kMaxValue: overflow bin
    p.record(1e12);             // ditto
    ASSERT_FALSE(p.exact());
    EXPECT_EQ(p.percentile(1.0), 0.0);
    EXPECT_EQ(p.percentile(100.0), StreamingPercentiles::kMaxValue);
    EXPECT_EQ(p.minValue(), -5.0); // scalar min/max stay exact
    EXPECT_EQ(p.maxValue(), 1e12);
}

TEST(StreamingPercentiles, MillionSampleStressStaysBounded)
{
    // 10^6 samples through a 4096-cap sketch: the documented error bound
    // must hold at the tracked percentiles, with memory fixed at the bin
    // array (no per-sample state after the exact buffer drops).
    Rng rng(41);
    StreamingPercentiles p(4096);
    std::vector<double> values;
    values.reserve(1000000);
    for (int i = 0; i < 1000000; ++i) {
        const double v = -std::log(1.0 - rng.uniform()) * 0.25;
        values.push_back(v);
        p.record(v);
    }
    ASSERT_FALSE(p.exact());
    EXPECT_EQ(p.count(), 1000000);
    const double bound = StreamingPercentiles::maxRelativeError();
    for (const double pct : {50.0, 95.0, 99.0, 99.9}) {
        const double exact = nearestRank(values, pct);
        EXPECT_NEAR(p.percentile(pct), exact, exact * bound) << pct;
    }
}

} // namespace
} // namespace smartinf
