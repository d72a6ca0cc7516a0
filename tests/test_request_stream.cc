/** @file Tests of deterministic request-arrival generation. */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "serve/request_stream.h"

namespace smartinf::serve {
namespace {

TEST(RequestStream, SameSeedIsBitIdentical)
{
    ServeConfig config;
    config.num_requests = 64;
    config.arrival_rate = 3.0;
    const auto a = generateRequestStream(config);
    const auto b = generateRequestStream(config);
    ASSERT_EQ(a.size(), 64u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int>(i));
        EXPECT_EQ(a[i].arrival, b[i].arrival); // bit-equal doubles
        EXPECT_EQ(a[i].prompt_tokens, config.prompt_tokens);
        EXPECT_EQ(a[i].output_tokens, config.output_tokens);
    }
}

TEST(RequestStream, DifferentSeedsDiffer)
{
    ServeConfig config;
    config.num_requests = 8;
    const auto a = generateRequestStream(config);
    config.seed += 1;
    const auto b = generateRequestStream(config);
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_different |= a[i].arrival != b[i].arrival;
    EXPECT_TRUE(any_different);
}

TEST(RequestStream, ArrivalsAreStrictlyPositiveAndNonDecreasing)
{
    ServeConfig config;
    config.num_requests = 128;
    config.arrival_rate = 10.0;
    const auto stream = generateRequestStream(config);
    Seconds prev = 0.0;
    for (const RequestSpec &r : stream) {
        EXPECT_GT(r.arrival, 0.0);
        EXPECT_GE(r.arrival, prev);
        prev = r.arrival;
    }
}

TEST(RequestStream, MeanInterarrivalTracksTheRate)
{
    ServeConfig config;
    config.num_requests = 4096;
    config.arrival_rate = 5.0;
    const auto stream = generateRequestStream(config);
    const double mean = stream.back().arrival / stream.size();
    EXPECT_NEAR(mean, 1.0 / config.arrival_rate, 0.02);
}

TEST(RequestStream, TraceOverridesOpenLoop)
{
    ServeConfig config;
    config.num_requests = 99; // ignored
    config.trace = {0.0, 0.5, 0.5, 2.0};
    const auto stream = generateRequestStream(config);
    ASSERT_EQ(stream.size(), 4u);
    EXPECT_EQ(config.streamSize(), 4);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream[i].id, static_cast<int>(i));
        EXPECT_DOUBLE_EQ(stream[i].arrival, config.trace[i]);
    }
}

TEST(RequestStream, ValidationCatchesBadConfigs)
{
    ServeConfig config;
    EXPECT_TRUE(config.validate().empty());
    config.arrival_rate = 0.0;
    EXPECT_FALSE(config.validate().empty());
    config.arrival_rate = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().empty());

    ServeConfig bad_trace;
    bad_trace.trace = {1.0, 0.5}; // decreasing
    EXPECT_FALSE(bad_trace.validate().empty());
    // NaN passes both ordering comparisons; a trailing +inf passes them
    // too. Either would reach the event queue as a simulated time.
    bad_trace.trace = {0.0, std::nan(""), 1.0};
    EXPECT_FALSE(bad_trace.validate().empty());
    bad_trace.trace = {0.0, 1.0, std::numeric_limits<double>::infinity()};
    EXPECT_FALSE(bad_trace.validate().empty());

    ServeConfig bad_tokens;
    bad_tokens.output_tokens = 0;
    EXPECT_FALSE(bad_tokens.validate().empty());

    ServeConfig bad_fraction;
    bad_fraction.weight_wire_fraction = 0.0;
    EXPECT_FALSE(bad_fraction.validate().empty());
}

TEST(RequestStream, SampledLengthsAreSeededAndBounded)
{
    ServeConfig config;
    config.num_requests = 256;
    config.prompt_lengths.kind = LengthDistKind::Uniform;
    config.prompt_lengths.min_tokens = 10;
    config.prompt_lengths.max_tokens = 20;
    config.output_lengths.kind = LengthDistKind::Lognormal;
    config.output_lengths.log_mean = 2.0;
    config.output_lengths.log_sigma = 1.0;
    config.output_lengths.min_tokens = 2;
    config.output_lengths.max_tokens = 64;

    const auto a = generateRequestStream(config);
    const auto b = generateRequestStream(config);
    ASSERT_EQ(a.size(), 256u);
    bool prompt_varies = false, output_varies = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Bit-identical across repeats.
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
        // Within the declared bounds.
        EXPECT_GE(a[i].prompt_tokens, 10);
        EXPECT_LE(a[i].prompt_tokens, 20);
        EXPECT_GE(a[i].output_tokens, 2);
        EXPECT_LE(a[i].output_tokens, 64);
        prompt_varies |= a[i].prompt_tokens != a[0].prompt_tokens;
        output_varies |= a[i].output_tokens != a[0].output_tokens;
    }
    EXPECT_TRUE(prompt_varies);
    EXPECT_TRUE(output_varies);
}

TEST(RequestStream, SamplingLengthsNeverPerturbsArrivals)
{
    // Lengths draw from an independently derived PRNG stream, so turning
    // a distribution on must leave the arrival times bit-identical —
    // the guarantee that keeps default configs comparable across PRs.
    ServeConfig fixed;
    fixed.num_requests = 64;
    fixed.arrival_rate = 2.0;

    ServeConfig mixed = fixed;
    mixed.output_lengths.kind = LengthDistKind::Lognormal;
    mixed.prompt_lengths.kind = LengthDistKind::Uniform;
    mixed.prompt_lengths.min_tokens = 1;
    mixed.prompt_lengths.max_tokens = 512;

    const auto a = generateRequestStream(fixed);
    const auto b = generateRequestStream(mixed);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].arrival, b[i].arrival);
}

TEST(RequestStream, FixedDistributionsUseTheScalarsExactly)
{
    ServeConfig config;
    config.num_requests = 16;
    config.prompt_tokens = 77;
    config.output_tokens = 9;
    for (const RequestSpec &r : generateRequestStream(config)) {
        EXPECT_EQ(r.prompt_tokens, 77);
        EXPECT_EQ(r.output_tokens, 9);
    }
}

TEST(RequestStream, ClosedLoopStreamsHaveReactiveArrivals)
{
    ServeConfig config;
    config.client_mode = ClientMode::ClosedLoop;
    config.num_requests = 12;
    config.concurrency = 3;
    const auto stream = generateRequestStream(config);
    ASSERT_EQ(stream.size(), 12u);
    for (const RequestSpec &r : stream)
        EXPECT_EQ(r.arrival, 0.0); // the workload stamps issue times
}

TEST(RequestStream, LengthDistributionValidation)
{
    ServeConfig config;
    config.prompt_lengths.kind = LengthDistKind::Uniform;
    config.prompt_lengths.min_tokens = 20;
    config.prompt_lengths.max_tokens = 10; // inverted bounds
    EXPECT_FALSE(config.validate().empty());

    config = ServeConfig{};
    config.output_lengths.kind = LengthDistKind::Lognormal;
    config.output_lengths.log_sigma = -0.5;
    EXPECT_FALSE(config.validate().empty());

    // A non-finite lognormal parameter draws NaN or inf lengths, which the
    // clamp would silently pin to a bound.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
        config = ServeConfig{};
        config.output_lengths.kind = LengthDistKind::Lognormal;
        config.output_lengths.log_mean = bad;
        EXPECT_FALSE(config.validate().empty()) << "log_mean " << bad;
    }
    config = ServeConfig{};
    config.prompt_lengths.kind = LengthDistKind::Lognormal;
    config.prompt_lengths.log_sigma = kInf;
    EXPECT_FALSE(config.validate().empty());

    // A non-Fixed distribution makes the scalar irrelevant: a zero
    // scalar must not be rejected.
    config = ServeConfig{};
    config.output_lengths.kind = LengthDistKind::Uniform;
    config.output_lengths.min_tokens = 1;
    config.output_lengths.max_tokens = 8;
    config.output_tokens = 0;
    EXPECT_TRUE(config.validate().empty());
}

TEST(RequestStream, ClosedLoopValidation)
{
    ServeConfig config;
    config.client_mode = ClientMode::ClosedLoop;
    EXPECT_TRUE(config.validate().empty());

    config.concurrency = 0;
    EXPECT_FALSE(config.validate().empty());

    config = ServeConfig{};
    config.client_mode = ClientMode::ClosedLoop;
    config.think_time = -1.0;
    EXPECT_FALSE(config.validate().empty());
    // An infinite think time would stamp every later arrival at t = inf.
    config.think_time = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().empty());

    config = ServeConfig{};
    config.client_mode = ClientMode::ClosedLoop;
    config.trace = {0.0, 1.0}; // arrivals are reactive; trace is senseless
    EXPECT_FALSE(config.validate().empty());
}

TEST(RequestStream, ExtremeLognormalTailClampsToTheCeiling)
{
    // Tail draws can exceed INT_MAX; they must clamp to max_tokens, not
    // wrap through the int cast and land on min_tokens.
    ServeConfig config;
    config.num_requests = 32;
    config.output_lengths.kind = LengthDistKind::Lognormal;
    config.output_lengths.log_mean = 40.0; // e^40 >> INT_MAX, every draw
    config.output_lengths.log_sigma = 1.0;
    config.output_lengths.min_tokens = 4;
    config.output_lengths.max_tokens = 8192;
    for (const RequestSpec &r : generateRequestStream(config))
        EXPECT_EQ(r.output_tokens, 8192);
}

} // namespace
} // namespace smartinf::serve
