/**
 * @file
 * Pins fixed training and serving workloads to exact event counts and
 * makespans. The values were recorded by the retired in-binary perf
 * harness and are kept in the frozen BENCH_PR*.json history: scaleout_n4,
 * serve_smart_16req and serve_kv_24req predate the observability layer;
 * scaleout_n16, serve_paged_24req, serve_failover_24req and
 * serve_autoscale_24req are the final trajectory point's values.
 * Observers are witnesses only: if a probe, observer hook, or log-clock
 * ever schedules or reorders simulated work, these exact-count pins fail.
 * Any other change to them is a model change.
 */
#include <gtest/gtest.h>

#include "obs/observation.h"
#include "serve/inference_workload.h"
#include "train/engine.h"

namespace smartinf {
namespace {

/** scaleout_n<nodes>: one training iteration, 8 devices per node. */
train::IterationResult
scaleoutCase(int nodes)
{
    const auto model = train::ModelSpec::gpt2(4.0);
    train::TrainConfig train;
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOpt;
    system.num_devices = 8;
    system.num_nodes = nodes;
    auto engine = train::makeEngine(model, train, system);
    return engine->runIteration();
}

/** The serving base every pinned serving case starts from: GPT-2 4.0B,
 *  continuous batching, 0.25 req/s, 256-token prompts, 16 output tokens. */
serve::ServeConfig
serveBase(int num_requests)
{
    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.num_requests = num_requests;
    config.arrival_rate = 0.25;
    config.prompt_tokens = 256;
    config.output_tokens = 16;
    config.max_batch = 8;
    return config;
}

/** Sampled output lengths plus tight KV budgets, so every decode step
 *  spills KV on top of the parameter stream. */
void
makeKvHeavy(serve::ServeConfig &config)
{
    config.output_lengths.kind = serve::LengthDistKind::Lognormal;
    config.output_lengths.log_mean = 3.5;
    config.output_lengths.log_sigma = 0.7;
    config.output_lengths.min_tokens = 8;
    config.output_lengths.max_tokens = 128;
    config.kv.enabled = true;
    config.kv.hbm_budget = GiB(0.25);
    config.kv.host_budget = GiB(0.5);
}

/** Run @p config on SU+O+C with 6 devices per node. */
train::WorkloadResult
runServe(const serve::ServeConfig &config, int nodes = 1)
{
    const auto model = train::ModelSpec::gpt2(4.0);
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 6;
    system.num_nodes = nodes;
    auto engine = train::makeEngine(model, {}, system);
    serve::InferenceWorkload workload(model, config);
    return engine->run(workload);
}

/** serve_smart_16req / serve_kv_24req. */
train::WorkloadResult
serveCase(int num_requests, bool kv_heavy)
{
    serve::ServeConfig config = serveBase(num_requests);
    if (kv_heavy)
        makeKvHeavy(config);
    return runServe(config);
}

// Events exactly; sim_seconds to the trajectory's printed precision.
constexpr double kSimTolerance = 1e-6;

TEST(ObsPinned, ScaleoutN4MatchesPreObservabilityTrajectory)
{
    const auto result = scaleoutCase(4);
    EXPECT_EQ(result.events_executed, 4589u);
    EXPECT_NEAR(result.iteration_time, 15.118796, kSimTolerance);
}

TEST(ObsPinned, ScaleoutN16MatchesTrajectory)
{
    const auto result = scaleoutCase(16);
    EXPECT_EQ(result.events_executed, 41957u);
    EXPECT_NEAR(result.iteration_time, 16.118860, kSimTolerance);
}

TEST(ObsPinned, ServeSmart16reqMatchesPreObservabilityTrajectory)
{
    const auto result = serveCase(16, /*kv_heavy=*/false);
    EXPECT_EQ(result.events_executed, 46498u);
    EXPECT_NEAR(result.iteration_time, 88.857308, kSimTolerance);
}

TEST(ObsPinned, ServeKv24reqMatchesPreObservabilityTrajectory)
{
    const auto result = serveCase(24, /*kv_heavy=*/true);
    EXPECT_EQ(result.events_executed, 87760u);
    EXPECT_NEAR(result.iteration_time, 149.436001, kSimTolerance);
}

TEST(ObsPinned, ServePaged24reqMatchesTrajectory)
{
    // The KV-heavy stream on a paged arena of 16-token pages, with half
    // the requests sharing one of two 200-token prefixes.
    serve::ServeConfig config = serveBase(24);
    makeKvHeavy(config);
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.block_tokens = 16;
    config.kv.prefix.share_fraction = 0.5;
    config.kv.prefix.num_prefixes = 2;
    config.kv.prefix.prefix_tokens = 200;
    const auto result = runServe(config);
    EXPECT_EQ(result.events_executed, 88007u);
    EXPECT_NEAR(result.iteration_time, 149.637928, kSimTolerance);
}

TEST(ObsPinned, ServeFailover24reqMatchesTrajectory)
{
    // Two replicas under crashes and link degradation: drain, retry, and
    // shed all on the simulated path.
    serve::ServeConfig config = serveBase(24);
    config.fault.enabled = true;
    config.fault.node_mtbf = 20.0;
    config.fault.degrade_mtbf = 40.0;
    config.fault.repair_time = 15.0;
    config.fault.horizon = 300.0;
    const auto result = runServe(config, /*nodes=*/2);
    EXPECT_EQ(result.events_executed, 86706u);
    EXPECT_NEAR(result.iteration_time, 113.210513, kSimTolerance);
}

TEST(ObsPinned, ServeAutoscale24reqMatchesTrajectory)
{
    // Three replicas under the control plane: JSQ dispatch, loose SLO
    // admission, and queue-driven autoscaling with warm-up prefills.
    serve::ServeConfig config = serveBase(24);
    config.arrival_rate = 0.5;
    config.max_batch = 2;
    config.ctrl.enabled = true;
    config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    config.ctrl.slo.admission = ctrl::AdmissionMode::Reject;
    config.ctrl.slo.target_p99_s = 120.0;
    config.ctrl.autoscale.enabled = true;
    config.ctrl.autoscale.min_replicas = 1;
    config.ctrl.autoscale.max_replicas = 3;
    config.ctrl.autoscale.window_s = 5.0;
    config.ctrl.autoscale.cooldown_s = 10.0;
    config.ctrl.autoscale.scale_up_depth = 1.5;
    config.ctrl.autoscale.scale_down_depth = 0.25;
    const auto result = runServe(config, /*nodes=*/3);
    EXPECT_EQ(result.events_executed, 81289u);
    EXPECT_NEAR(result.iteration_time, 63.058234, kSimTolerance);
}

TEST(ObsPinned, PinsHoldIdenticallyUnderFullObservation)
{
    // Belt and braces for the acceptance bar: the same pinned workload,
    // now traced + sampled, must land on the same numbers exactly.
    obs::Observation observation({});
    observation.install();
    const auto result = serveCase(24, /*kv_heavy=*/true);
    observation.uninstall();

    EXPECT_EQ(result.events_executed, 87760u);
    EXPECT_NEAR(result.iteration_time, 149.436001, kSimTolerance);
    EXPECT_EQ(observation.runsRecorded(), 1);
    EXPECT_GT(observation.trace().eventCount(), 0u);
}

} // namespace
} // namespace smartinf
