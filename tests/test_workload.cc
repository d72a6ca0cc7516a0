/**
 * @file
 * Tests of the Workload API: Engine::run(TrainingWorkload) is the same
 * computation runIteration() always performed (bit-identical, single- and
 * multi-node), and serving workloads run end to end through makeEngine.
 */
#include <gtest/gtest.h>

#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "serve/serve_config.h"
#include "train/engine.h"
#include "train/training_workload.h"

namespace smartinf {
namespace {

train::ModelSpec
smallModel()
{
    return train::ModelSpec::gpt2(0.5);
}

void
expectBitIdentical(const train::IterationResult &a,
                   const train::IterationResult &b)
{
    EXPECT_EQ(a.phases.forward, b.phases.forward);
    EXPECT_EQ(a.phases.backward, b.phases.backward);
    EXPECT_EQ(a.phases.update, b.phases.update);
    EXPECT_EQ(a.iteration_time, b.iteration_time);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.traffic.sharedTotal(), b.traffic.sharedTotal());
    EXPECT_EQ(a.traffic.internal_read, b.traffic.internal_read);
    EXPECT_EQ(a.traffic.internal_write, b.traffic.internal_write);
    EXPECT_EQ(a.traffic.internodeTotal(), b.traffic.internodeTotal());
}

TEST(WorkloadApi, RunTrainingWorkloadMatchesRunIterationSingleNode)
{
    const auto model = smallModel();
    const train::TrainConfig tc;
    for (const train::Strategy strategy : train::allStrategies()) {
        train::SystemConfig system;
        system.strategy = strategy;
        system.num_devices = 4;
        auto engine = train::makeEngine(model, tc, system);

        const train::IterationResult via_iteration = engine->runIteration();
        train::TrainingWorkload workload(model, tc);
        const train::WorkloadResult via_run = engine->run(workload);

        EXPECT_EQ(via_run.kind, train::WorkloadKind::Training);
        expectBitIdentical(via_iteration, via_run);
        EXPECT_TRUE(via_run.requests.empty());
    }
}

TEST(WorkloadApi, RunTrainingWorkloadMatchesRunIterationMultiNode)
{
    const auto model = smallModel();
    const train::TrainConfig tc;
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOpt;
    system.num_devices = 4;
    system.num_nodes = 4;
    auto engine = train::makeEngine(model, tc, system);

    const train::IterationResult via_iteration = engine->runIteration();
    train::TrainingWorkload workload(model, tc);
    const train::WorkloadResult via_run = engine->run(workload);
    expectBitIdentical(via_iteration, via_run);
    EXPECT_GT(via_run.traffic.internode_tx, 0.0);
}

TEST(WorkloadApi, RepeatedRunsOfOneEngineAreBitIdentical)
{
    const auto model = smallModel();
    const train::TrainConfig tc;
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    auto engine = train::makeEngine(model, tc, system);
    expectBitIdentical(engine->runIteration(), engine->runIteration());
}

// ---- serving end to end through the factory ---------------------------------

TEST(WorkloadApi, ServingWorkloadRunsOnAnyEngine)
{
    const auto model = smallModel();
    serve::ServeConfig config;
    config.num_requests = 4;
    config.arrival_rate = 0.5;
    config.output_tokens = 4;
    config.prompt_tokens = 64;

    for (const train::Strategy strategy : train::allStrategies()) {
        train::SystemConfig system;
        system.strategy = strategy;
        system.num_devices = 4;
        auto engine = train::makeEngine(model, {}, system);
        serve::InferenceWorkload workload(model, config);
        const train::WorkloadResult result = engine->run(workload);

        EXPECT_EQ(result.kind, train::WorkloadKind::Serving);
        ASSERT_EQ(result.requests.size(), 4u);
        EXPECT_GT(result.iteration_time, 0.0);
        EXPECT_GT(result.events_executed, 0u);
        EXPECT_GT(result.traffic.shared_param_up, 0.0);
        EXPECT_DOUBLE_EQ(serve::summarize(result).output_tokens_per_sec,
                         16.0 / result.iteration_time);
        for (const train::RequestRecord &r : result.requests) {
            EXPECT_GE(r.start, r.arrival);
            EXPECT_GE(r.first_token, r.start);
            EXPECT_GE(r.finish, r.first_token);
            EXPECT_EQ(r.output_tokens, 4);
        }
    }
}

TEST(WorkloadApi, InvalidServeConfigIsFatal)
{
    serve::ServeConfig config;
    config.num_requests = 0;
    EXPECT_THROW(serve::InferenceWorkload(smallModel(), config),
                 std::runtime_error);
}

} // namespace
} // namespace smartinf
