/** @file Tests for the windowed, mergeable counter sampler. */
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/counter_sampler.h"

namespace smartinf::obs {
namespace {

TEST(CounterSampler, FoldsSamplesIntoWindows)
{
    CounterSampler sampler(1.0);
    const CounterId id = sampler.counter("depth");
    sampler.record(id, 0.1, 3.0);
    sampler.record(id, 0.9, 5.0);
    sampler.record(id, 1.2, 1.0);

    const auto *series = sampler.find("depth");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->windows.size(), 2u);

    const auto &w0 = series->windows[0];
    EXPECT_EQ(w0.index, 0);
    EXPECT_EQ(w0.count, 2u);
    EXPECT_DOUBLE_EQ(w0.min, 3.0);
    EXPECT_DOUBLE_EQ(w0.max, 5.0);
    EXPECT_DOUBLE_EQ(w0.sum, 8.0);
    EXPECT_DOUBLE_EQ(w0.mean(), 4.0);
    EXPECT_DOUBLE_EQ(w0.last, 5.0);

    const auto &w1 = series->windows[1];
    EXPECT_EQ(w1.index, 1);
    EXPECT_EQ(w1.count, 1u);
    EXPECT_DOUBLE_EQ(w1.last, 1.0);
}

TEST(CounterSampler, WindowIndexHandlesArbitraryTimes)
{
    CounterSampler sampler(0.25);
    sampler.record("x", 0.70, 1.0);
    sampler.record("x", 0.74, 2.0);
    sampler.record("x", 0.76, 3.0);
    const auto *series = sampler.find("x");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->windows.size(), 2u);
    EXPECT_EQ(series->windows[0].index, 2); // [0.50, 0.75)
    EXPECT_EQ(series->windows[0].count, 2u);
    EXPECT_EQ(series->windows[1].index, 3); // [0.75, 1.00)
    EXPECT_EQ(series->windows[1].count, 1u);
}

TEST(CounterSampler, OutOfOrderSamplesLandInTheirWindows)
{
    CounterSampler sampler(1.0);
    sampler.record("x", 5.5, 1.0);
    sampler.record("x", 2.5, 2.0); // before the trailing window
    sampler.record("x", 5.9, 3.0);
    const auto *series = sampler.find("x");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->windows.size(), 2u);
    EXPECT_EQ(series->windows[0].index, 2);
    EXPECT_EQ(series->windows[1].index, 5);
    EXPECT_EQ(series->windows[1].count, 2u);
    // "last" follows sample time, not call order.
    EXPECT_DOUBLE_EQ(series->windows[1].last, 3.0);
}

TEST(CounterSampler, MemoryStaysWindowedNotPerSample)
{
    CounterSampler sampler(1.0);
    const CounterId id = sampler.counter("hot");
    for (int i = 0; i < 100000; ++i)
        sampler.record(id, 0.00001 * i, static_cast<double>(i));
    const auto *series = sampler.find("hot");
    ASSERT_NE(series, nullptr);
    // 100k samples over [0, 1.0) -> exactly one window.
    ASSERT_EQ(series->windows.size(), 1u);
    EXPECT_EQ(series->windows[0].count, 100000u);
}

/** merge() must equal the sampler that saw all samples directly. */
TEST(CounterSampler, MergeMatchesDirectAccumulation)
{
    CounterSampler a(0.5), b(0.5), direct(0.5);
    struct Sample {
        const char *name;
        double t, v;
    };
    const Sample to_a[] = {{"q", 0.1, 1.0}, {"q", 0.6, 2.0}, {"r", 0.2, 9.0}};
    const Sample to_b[] = {{"q", 0.4, 7.0}, {"q", 2.1, 4.0}, {"s", 0.9, 5.0}};
    for (const auto &s : to_a) {
        a.record(s.name, s.t, s.v);
        direct.record(s.name, s.t, s.v);
    }
    for (const auto &s : to_b) {
        b.record(s.name, s.t, s.v);
        direct.record(s.name, s.t, s.v);
    }
    a.merge(b);

    std::ostringstream merged, expected;
    a.writeCsv(merged);
    direct.writeCsv(expected);
    EXPECT_EQ(merged.str(), expected.str());
}

TEST(CounterSampler, MergeLastTakesLatestSampleTime)
{
    CounterSampler a(1.0), b(1.0);
    a.record("x", 0.8, 10.0);
    b.record("x", 0.3, 20.0); // earlier sample, merged second
    a.merge(b);
    const auto *series = a.find("x");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->windows.size(), 1u);
    EXPECT_DOUBLE_EQ(series->windows[0].last, 10.0);
    EXPECT_EQ(series->windows[0].count, 2u);
    EXPECT_DOUBLE_EQ(series->windows[0].min, 10.0);
    EXPECT_DOUBLE_EQ(series->windows[0].max, 20.0);
}

TEST(CounterSampler, MergeRequiresEqualWindows)
{
    CounterSampler a(1.0), b(0.5);
    EXPECT_THROW(a.merge(b), std::runtime_error);
}

TEST(CounterSampler, CsvShapeIsStable)
{
    CounterSampler sampler(1.0);
    sampler.record("depth", 0.5, 2.0);
    std::ostringstream os;
    sampler.writeCsv(os);
    EXPECT_EQ(os.str(),
              "counter,window_start_s,count,min,max,mean,last\n"
              "depth,0.000000,1,2.000000,2.000000,2.000000,2.000000\n");
}

TEST(CounterSampler, RejectsNonPositiveWindow)
{
    EXPECT_THROW(CounterSampler(0.0), std::runtime_error);
    EXPECT_THROW(CounterSampler(std::numeric_limits<double>::quiet_NaN()),
                 std::runtime_error);
    EXPECT_THROW(CounterSampler(std::numeric_limits<double>::infinity()),
                 std::runtime_error);
}

/** The semigroup contract at streaming scale: 10^6 samples split over
 *  shards must merge — in any association order — to exactly the
 *  sampler that saw every sample directly. */
TEST(CounterSampler, MergeIsAssociativeAtAMillionSamples)
{
    constexpr int kSamples = 1000000;
    constexpr int kShards = 4;
    CounterSampler direct(2.0);
    std::vector<CounterSampler> shards(kShards, CounterSampler(2.0));
    // Deterministic pseudo-stream: two counters, times spanning many
    // windows, values exercising min/max/sum paths.
    for (int i = 0; i < kSamples; ++i) {
        const double t = 0.001 * i;
        const double v = static_cast<double>((i * 2654435761u) % 1000);
        const char *name = (i % 3 == 0) ? "arrivals" : "latency_s";
        direct.record(name, t, v);
        shards[static_cast<std::size_t>(i % kShards)].record(name, t, v);
    }
    // Left fold: ((s0 + s1) + s2) + s3.
    CounterSampler left(shards[0]);
    for (int s = 1; s < kShards; ++s)
        left.merge(shards[static_cast<std::size_t>(s)]);
    // Right-leaning, reordered fold: s3 + (s1 + (s2 + s0)).
    CounterSampler inner(shards[2]);
    inner.merge(shards[0]);
    CounterSampler mid(shards[1]);
    mid.merge(inner);
    CounterSampler right(shards[3]);
    right.merge(mid);

    std::ostringstream l, r, d;
    left.writeCsv(l);
    right.writeCsv(r);
    direct.writeCsv(d);
    EXPECT_EQ(l.str(), d.str());
    EXPECT_EQ(r.str(), d.str());
}

} // namespace
} // namespace smartinf::obs
