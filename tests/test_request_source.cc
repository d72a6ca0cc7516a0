/**
 * @file
 * Oracle tests of the streaming request pipeline: the lazy RequestSource
 * must be bit-identical, spec by spec, to the reference
 * generateRequestStream(). Every generation-consuming feature is toggled
 * across the suite: sampled lengths, shared prefixes, trace arrivals,
 * closed loop, and arrival modulation. The record cap is
 * exercised through whole serving runs.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "exp/run_spec.h"
#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "serve/request_source.h"
#include "serve/request_stream.h"
#include "train/engine.h"

namespace smartinf::serve {
namespace {

train::ModelSpec
smallModel()
{
    return train::ModelSpec::gpt2(0.5);
}

serve::ServeConfig
smallServe()
{
    ServeConfig config;
    config.num_requests = 24;
    config.arrival_rate = 1.0;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.max_batch = 4;
    return config;
}

train::WorkloadResult
runServe(const ServeConfig &config, int nodes = 1)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    system.num_nodes = nodes;
    auto engine = train::makeEngine(smallModel(), {}, system);
    InferenceWorkload workload(smallModel(), config);
    return engine->run(workload);
}

/** Drain @p config's RequestSource into a vector. */
std::vector<RequestSpec>
drain(const ServeConfig &config)
{
    RequestSource source(config);
    std::vector<RequestSpec> out;
    while (!source.done())
        out.push_back(source.next());
    return out;
}

void
expectSpecsBitIdentical(const std::vector<RequestSpec> &a,
                        const std::vector<RequestSpec> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrival, b[i].arrival); // bit-equal doubles
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
        EXPECT_EQ(a[i].prefix_id, b[i].prefix_id);
        EXPECT_EQ(a[i].prefix_tokens, b[i].prefix_tokens);
    }
}

void
expectRecordsBitIdentical(const std::vector<train::RequestRecord> &a,
                          const std::vector<train::RequestRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].first_token, b[i].first_token);
        EXPECT_EQ(a[i].finish, b[i].finish);
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
        EXPECT_EQ(a[i].retries, b[i].retries);
        EXPECT_EQ(a[i].shed, b[i].shed);
        EXPECT_EQ(a[i].rejected, b[i].rejected);
        EXPECT_EQ(a[i].deferrals, b[i].deferrals);
    }
}

// ---- generator-level oracle -------------------------------------------------

TEST(RequestSource, MatchesMaterializedGeneratorExactly)
{
    ServeConfig config = smallServe();
    config.num_requests = 512;
    config.arrival_rate = 4.0;
    expectSpecsBitIdentical(drain(config), generateRequestStream(config));
}

TEST(RequestSource, MatchesWithSampledLengths)
{
    ServeConfig config = smallServe();
    config.num_requests = 256;
    config.prompt_lengths.kind = LengthDistKind::Uniform;
    config.prompt_lengths.min_tokens = 16;
    config.prompt_lengths.max_tokens = 256;
    config.output_lengths.kind = LengthDistKind::Lognormal;
    config.output_lengths.log_mean = 2.0;
    config.output_lengths.log_sigma = 0.8;
    config.output_lengths.min_tokens = 2;
    config.output_lengths.max_tokens = 64;
    expectSpecsBitIdentical(drain(config), generateRequestStream(config));
}

TEST(RequestSource, MatchesWithSharedPrefixes)
{
    ServeConfig config = smallServe();
    config.num_requests = 256;
    config.kv.enabled = true;
    config.kv.layout = KvLayout::Paged;
    config.kv.prefix.share_fraction = 0.5;
    config.kv.prefix.num_prefixes = 4;
    config.kv.prefix.prefix_tokens = 32;
    expectSpecsBitIdentical(drain(config), generateRequestStream(config));
}

TEST(RequestSource, MatchesWithModulatedArrivals)
{
    ServeConfig config = smallServe();
    config.num_requests = 512;
    config.arrival_rate = 4.0;
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 0.5;
    config.modulation.diurnal_period_s = 60.0;
    config.modulation.burst_rate_multiplier = 3.0;
    config.modulation.burst_mean_gap_s = 30.0;
    config.modulation.burst_mean_duration_s = 5.0;
    expectSpecsBitIdentical(drain(config), generateRequestStream(config));
}

TEST(RequestSource, MatchesTraceMode)
{
    ServeConfig config = smallServe();
    config.trace = {0.0, 0.25, 0.25, 1.5, 4.0};
    expectSpecsBitIdentical(drain(config), generateRequestStream(config));
}

TEST(RequestSource, MatchesClosedLoop)
{
    ServeConfig config = smallServe();
    config.client_mode = ClientMode::ClosedLoop;
    config.num_requests = 64;
    config.concurrency = 4;
    expectSpecsBitIdentical(drain(config), generateRequestStream(config));
}

TEST(RequestSource, SingleRequestStream)
{
    ServeConfig config = smallServe();
    config.num_requests = 1;
    RequestSource source(config);
    EXPECT_EQ(source.total(), 1);
    EXPECT_FALSE(source.done());
    const RequestSpec only = source.next();
    EXPECT_EQ(only.id, 0);
    EXPECT_GT(only.arrival, 0.0);
    EXPECT_TRUE(source.done());
    expectSpecsBitIdentical({only}, generateRequestStream(config));
}

// ---- record cap -------------------------------------------------------------

TEST(RequestSource, RecordCapBoundsRetainedRecordsOnly)
{
    ServeConfig config = smallServe();
    config.num_requests = 48;
    config.arrival_rate = 4.0;

    const train::WorkloadResult full = runServe(config);
    config.record_cap = 8;
    const train::WorkloadResult capped = runServe(config);

    // The cap truncates retention, never the simulation: identical
    // physics, identical event count and makespan.
    EXPECT_EQ(full.events_executed, capped.events_executed);
    EXPECT_EQ(full.iteration_time, capped.iteration_time);
    ASSERT_EQ(full.requests.size(), 48u);
    ASSERT_EQ(capped.requests.size(), 8u);
    EXPECT_EQ(capped.streaming.total_requests, 48);
    EXPECT_EQ(capped.streaming.records_retained, 8);
    EXPECT_EQ(capped.streaming.num_served, 48);
    // The retained prefix is the first 8 retirements of the full run.
    expectRecordsBitIdentical(
        capped.requests,
        {full.requests.begin(), full.requests.begin() + 8});
}

TEST(RequestSource, RecordCapKeepsWholeStreamTokenThroughput)
{
    // tokens_per_s counts every output token of the stream, not only the
    // tokens of the records the cap retained.
    ServeConfig config = smallServe();
    config.num_requests = 48;
    config.arrival_rate = 4.0;
    exp::RunRecord full;
    full.result = runServe(config);
    config.record_cap = 8;
    exp::RunRecord capped;
    capped.result = runServe(config);

    ASSERT_EQ(capped.result.requests.size(), 8u);
    EXPECT_GT(full.tokensPerSecond(), 0.0);
    EXPECT_EQ(capped.tokensPerSecond(), full.tokensPerSecond());
    EXPECT_EQ(full.tokensPerSecond(),
              48.0 * config.output_tokens / full.result.iteration_time);
}

TEST(RequestSource, RecordCapSummaryMatchesExactWhilePopulationFits)
{
    // With the population inside the sketch's exact buffer (cap above
    // the stream size), the capped summary must reproduce the uncapped
    // one exactly — same percentile definition, same populations, same
    // summation order for the mean.
    ServeConfig config = smallServe();
    const train::WorkloadResult full = runServe(config);
    ServeConfig capped_config = config;
    capped_config.record_cap = 64; // > stream: sketches stay exact
    const train::WorkloadResult capped = runServe(capped_config);

    const serve::ServingMetrics exact = serve::summarize(full);
    const serve::ServingMetrics streamed = serve::summarize(capped);
    EXPECT_TRUE(exact.percentiles_exact);
    EXPECT_TRUE(streamed.percentiles_exact);
    EXPECT_EQ(exact.num_requests, streamed.num_requests);
    EXPECT_EQ(exact.num_served, streamed.num_served);
    EXPECT_EQ(exact.latency.p50, streamed.latency.p50);
    EXPECT_EQ(exact.latency.p95, streamed.latency.p95);
    EXPECT_EQ(exact.latency.p99, streamed.latency.p99);
    EXPECT_EQ(exact.ttft.p99, streamed.ttft.p99);
    EXPECT_EQ(exact.queue_delay.p99, streamed.queue_delay.p99);
    EXPECT_EQ(exact.latency.mean, streamed.latency.mean);
    EXPECT_EQ(exact.requests_per_sec, streamed.requests_per_sec);
    EXPECT_EQ(exact.replica_requests, streamed.replica_requests);
}

// ---- arrival modulation semantics -------------------------------------------

TEST(RequestSource, ModulationOffIsByteIdenticalToLegacyArrivals)
{
    // A default-constructed modulation block must not perturb a single
    // arrival draw — the no-new-knob alias that keeps every tracked
    // scenario's results frozen.
    ServeConfig base = smallServe();
    base.num_requests = 128;
    ServeConfig with_block = base;
    with_block.modulation = ArrivalModulationConfig{};
    expectSpecsBitIdentical(generateRequestStream(base),
                            generateRequestStream(with_block));
}

TEST(RequestSource, BurstEpisodeRaisesRealizedRate)
{
    // A drawn first gap of about a millisecond opens a burst that never
    // ends, so almost every arrival runs at the burst rate.
    ServeConfig config = smallServe();
    config.num_requests = 2048;
    config.arrival_rate = 2.0;
    config.modulation.enabled = true;
    config.modulation.burst_rate_multiplier = 8.0;
    config.modulation.burst_mean_gap_s = 1e-3;
    config.modulation.burst_mean_duration_s = 1e9; // never ends
    const auto burst = generateRequestStream(config);
    // Entire stream inside the burst: realized rate ~ 8x base.
    const double mean_gap = burst.back().arrival /
                            static_cast<double>(burst.size());
    EXPECT_NEAR(mean_gap, 1.0 / (8.0 * 2.0), 0.02);
    // And deterministic: a second draw is bit-identical.
    expectSpecsBitIdentical(burst, generateRequestStream(config));
}

TEST(RequestSource, DiurnalModulationVariesRealizedRate)
{
    // Amplitude 0.9 with a long period relative to the stream: windows
    // near the sinusoid peak must arrive denser than windows near the
    // trough.
    ServeConfig config = smallServe();
    config.num_requests = 4096;
    config.arrival_rate = 4.0;
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 0.9;
    config.modulation.diurnal_period_s = 200.0;
    const auto stream = generateRequestStream(config);
    // Count arrivals in the first quarter-period (rising peak) vs the
    // third (trough): sin is positive in the first, negative in the
    // third.
    int peak_count = 0, trough_count = 0;
    for (const RequestSpec &r : stream) {
        const double phase = std::fmod(r.arrival, 200.0) / 200.0;
        if (phase < 0.25)
            ++peak_count;
        else if (phase >= 0.5 && phase < 0.75)
            ++trough_count;
    }
    EXPECT_GT(peak_count, 2 * trough_count);
}

TEST(RequestSource, ModulationValidation)
{
    // Enabled but nothing armed: a contradiction, not a no-op.
    ServeConfig config = smallServe();
    config.modulation.enabled = true;
    EXPECT_FALSE(config.validate().empty());

    // Amplitude out of [0, 1).
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 1.0;
    EXPECT_FALSE(config.validate().empty());
    config.modulation.diurnal_amplitude = -0.1;
    EXPECT_FALSE(config.validate().empty());

    // Armed sinusoid needs a positive period.
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 0.5;
    config.modulation.diurnal_period_s = 0.0;
    EXPECT_FALSE(config.validate().empty());

    // Burst multiplier below 1 shrinks the envelope below the base
    // rate — rejected rather than silently mis-thinned.
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.burst_rate_multiplier = 0.5;
    EXPECT_FALSE(config.validate().empty());
    // An infinite multiplier makes thinning accept nothing: generation
    // would never end.
    config.modulation.burst_rate_multiplier =
        std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().empty());

    // So does an infinite base rate (an infinite envelope).
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 0.5;
    config.arrival_rate = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().empty());

    // Armed bursts need positive gap/duration means.
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.burst_rate_multiplier = 2.0;
    config.modulation.burst_mean_gap_s = 0.0;
    EXPECT_FALSE(config.validate().empty());

    // Modulation requires generated open-loop arrivals.
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 0.5;
    config.client_mode = ClientMode::ClosedLoop;
    EXPECT_FALSE(config.validate().empty());
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 0.5;
    config.trace = {0.0, 1.0};
    EXPECT_FALSE(config.validate().empty());

    // A fully-armed block validates.
    config = smallServe();
    config.modulation.enabled = true;
    config.modulation.diurnal_amplitude = 0.5;
    config.modulation.burst_rate_multiplier = 2.0;
    EXPECT_TRUE(config.validate().empty());
}

TEST(RequestSource, RecordCapValidation)
{
    ServeConfig config = smallServe();
    config.record_cap = -1;
    EXPECT_FALSE(config.validate().empty());

    config = smallServe();
    config.record_cap = 16;
    config.stream_window_s = 0.0;
    EXPECT_FALSE(config.validate().empty());

    config = smallServe();
    config.record_cap = 16;
    config.stream_window_s = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().empty());

    // window_s is inert while the cap is off.
    config = smallServe();
    config.stream_window_s = 0.0;
    EXPECT_TRUE(config.validate().empty());
}

} // namespace
} // namespace smartinf::serve
