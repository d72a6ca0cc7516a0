/**
 * @file
 * Serving under fault injection: replica crashes displace and retry
 * requests on survivors, link degradation slows but never loses work,
 * shed requests are first-class records, and every fault-mode run is
 * bit-identical across repeats. Also pins the inertness contract: arming
 * the fault machinery with no fault category enabled changes nothing.
 */
#include <gtest/gtest.h>

#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "train/engine.h"

namespace smartinf {
namespace {

train::ModelSpec
smallModel()
{
    return train::ModelSpec::gpt2(0.5);
}

serve::ServeConfig
baseServe()
{
    serve::ServeConfig config;
    config.num_requests = 16;
    config.arrival_rate = 0.2;
    config.prompt_tokens = 64;
    config.output_tokens = 6;
    config.max_batch = 4;
    return config;
}

train::WorkloadResult
runServe(const serve::ServeConfig &config, int nodes = 2)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    system.num_nodes = nodes;
    auto engine = train::makeEngine(smallModel(), {}, system);
    serve::InferenceWorkload workload(smallModel(), config);
    return engine->run(workload);
}

void
expectIdenticalRecords(const train::WorkloadResult &a,
                       const train::WorkloadResult &b)
{
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].node, b.requests[i].node);
        EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
        EXPECT_EQ(a.requests[i].start, b.requests[i].start);
        EXPECT_EQ(a.requests[i].first_token, b.requests[i].first_token);
        EXPECT_EQ(a.requests[i].finish, b.requests[i].finish);
        EXPECT_EQ(a.requests[i].retries, b.requests[i].retries);
        EXPECT_EQ(a.requests[i].shed, b.requests[i].shed);
    }
    EXPECT_EQ(a.iteration_time, b.iteration_time);
    EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ServeFailover, ArmedButUnusedFaultMachineryIsInert)
{
    // fault.enabled=true with every MTBF at kNever draws no events but
    // flips faults_armed (cancellers registered, domains opened). None of
    // that may perturb a single timestamp.
    const auto off = runServe(baseServe());
    serve::ServeConfig armed = baseServe();
    armed.fault.enabled = true; // all categories still kNever
    const auto on = runServe(armed);
    expectIdenticalRecords(off, on);
    EXPECT_FALSE(off.fault.enabled);
    EXPECT_TRUE(on.fault.enabled);
    EXPECT_EQ(on.fault.node_crashes, 0);
    EXPECT_EQ(on.fault.requests_shed, 0);
}

TEST(ServeFailover, NodeCrashDisplacesAndRetriesOnSurvivors)
{
    serve::ServeConfig config = baseServe();
    config.fault.enabled = true;
    config.fault.node_mtbf = 20.0; // several crashes over the run
    config.fault.repair_time = 15.0;
    config.fault.horizon = 300.0;
    const auto result = runServe(config);

    ASSERT_EQ(result.requests.size(), 16u);
    EXPECT_GE(result.fault.node_crashes, 1);
    const auto m = serve::summarize(result);
    EXPECT_EQ(m.num_served + m.num_shed, 16);
    EXPECT_EQ(m.num_shed, result.fault.requests_shed);
    for (const train::RequestRecord &r : result.requests) {
        if (r.shed) {
            EXPECT_EQ(r.output_tokens, 0);
            EXPECT_EQ(r.node, -1);
            EXPECT_GE(r.finish, r.arrival); // shed time stamps finish
        } else {
            EXPECT_GT(r.output_tokens, 0);
            EXPECT_GE(r.retries, 0);
            // Retried requests keep their original arrival: latency
            // includes the failed attempt and the backoff.
            EXPECT_GE(r.finish, r.arrival);
        }
    }
    // At least one request rode through a crash (displaced then served or
    // shed) — with MTBF 20s over a multi-hundred-second run this is a
    // deterministic property of the pinned seed.
    EXPECT_GT(result.fault.requests_displaced, 0);
    EXPECT_GT(m.total_retries, 0);
}

TEST(ServeFailover, FaultRunsAreBitIdenticalAcrossRepeats)
{
    serve::ServeConfig config = baseServe();
    config.fault.enabled = true;
    config.fault.node_mtbf = 25.0;
    config.fault.degrade_mtbf = 40.0;
    const auto a = runServe(config);
    const auto b = runServe(config);
    expectIdenticalRecords(a, b);
    EXPECT_EQ(a.fault.node_crashes, b.fault.node_crashes);
    EXPECT_EQ(a.fault.requests_shed, b.fault.requests_shed);
    EXPECT_EQ(a.fault.retries_dispatched, b.fault.retries_dispatched);
}

TEST(ServeFailover, LinkDegradationSlowsTheRun)
{
    const auto clean = runServe(baseServe());
    serve::ServeConfig config = baseServe();
    config.fault.enabled = true;
    config.fault.degrade_mtbf = 20.0;
    config.fault.degrade_factor = 0.25;
    config.fault.degrade_duration = 20.0;
    const auto degraded = runServe(config);

    EXPECT_GE(degraded.fault.link_degrades, 1);
    EXPECT_EQ(degraded.fault.requests_shed, 0);
    EXPECT_GT(degraded.iteration_time, clean.iteration_time);
}

TEST(ServeFailover, ClosedLoopShedsDoNotDeadlockClients)
{
    // Crashes every ~2 s hit busy replicas, and retry limit 0 sheds each
    // displaced request at once: each shed must release its client.
    serve::ServeConfig config = baseServe();
    config.client_mode = serve::ClientMode::ClosedLoop;
    config.num_requests = 48;
    config.concurrency = 4;
    config.think_time = 1.0;
    config.fault.enabled = true;
    config.fault.node_mtbf = 2.0;
    config.fault.repair_time = 20.0;
    config.fault.retry_limit = 0;
    const auto result = runServe(config);
    // The run drained: every stream entry has exactly one disposition.
    ASSERT_EQ(result.requests.size(), 48u);
    const auto m = serve::summarize(result);
    EXPECT_GT(m.num_shed, 0);
    EXPECT_EQ(m.num_served + m.num_shed, 48);
}

TEST(ServeFailover, SummarizeReportsDispositions)
{
    serve::ServeConfig config = baseServe();
    config.fault.enabled = true;
    config.fault.node_mtbf = 20.0;
    config.fault.repair_time = 15.0;
    const auto result = runServe(config);
    const auto m = serve::summarize(result);
    EXPECT_EQ(m.num_requests, 16);
    EXPECT_DOUBLE_EQ(m.success_rate,
                     static_cast<double>(m.num_served) / 16.0);
    EXPECT_LE(m.goodput, m.requests_per_sec);
    if (m.num_shed == 0) {
        EXPECT_DOUBLE_EQ(m.goodput, m.requests_per_sec);
        EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
    }
}

} // namespace
} // namespace smartinf
