/**
 * @file
 * The max-min oracle as a witness on the shapes real workloads build. The
 * flow-network stress tests compare the incremental scheduler with
 * FlowNetwork::oracleRates() on synthetic topologies; here whole workloads
 * (a 4-node ring all-reduce training iteration, a serving stream, paged KV
 * spilling beside the parameter stream, and crash and link-degrade
 * episodes) run through their own SimContext, and after every executed
 * event each flow's rate and each link's aggregate must equal the oracle's
 * bit for bit, and the contention components the network keeps must equal
 * FlowNetwork::oracleComponents(). Stepping the context by hand must also execute exactly the
 * events Engine::run does on the same workload.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "fault/checkpoint_workload.h"
#include "serve/inference_workload.h"
#include "train/engine.h"
#include "train/sim_context.h"
#include "train/training_workload.h"

namespace smartinf::train {
namespace {

using MakeWorkload = std::function<std::unique_ptr<Workload>()>;

/** False (with a failure) at the first mismatch against the oracle. */
bool
matchesOracle(const SimContext &ctx, std::vector<char> &carried)
{
    const net::FlowNetwork &net = ctx.net;
    const auto snap = net.oracleRates();
    if (snap.rates.size() != net.activeFlows()) {
        ADD_FAILURE() << snap.rates.size() << " oracle rates for "
                      << net.activeFlows() << " active flows";
        return false;
    }
    for (const auto &[id, rate] : snap.rates) {
        if (net.currentRate(id) != rate) {
            ADD_FAILURE() << "flow " << id << ": " << net.currentRate(id)
                          << " vs oracle " << rate;
            return false;
        }
    }
    if (net.components() != net.oracleComponents()) {
        ADD_FAILURE() << "kept contention components differ from the "
                         "flood fill's";
        return false;
    }
    carried.assign(ctx.topo.linkCount(), 0);
    for (const auto &[link, agg] : snap.link_rates) {
        carried[link->id()] = 1;
        if (net.linkAggregateRate(link) != agg) {
            ADD_FAILURE() << "link " << link->name() << ": "
                          << net.linkAggregateRate(link) << " vs oracle "
                          << agg;
            return false;
        }
    }
    // A link the oracle leaves out carries no flow: its aggregate must
    // have been reset when its last flow left, not left stale.
    bool idle_ok = true;
    ctx.topo.forEachLink([&](const net::Link &link) {
        if (idle_ok && !carried[link.id()] &&
            net.linkAggregateRate(&link) != 0.0) {
            ADD_FAILURE() << "idle link " << link.name() << " reads "
                          << net.linkAggregateRate(&link);
            idle_ok = false;
        }
    });
    return idle_ok;
}

/**
 * Run one workload event by event under the oracle, then once more
 * through Engine::run, and require the same number of executed events.
 */
void
expectOracleHoldsThroughout(const ModelSpec &model,
                            const SystemConfig &system,
                            const MakeWorkload &make)
{
    SimContext ctx(system);
    const auto workload = make();
    workload->build(ctx);
    ctx.graph.start();
    std::vector<char> carried;
    bool ok = true;
    std::size_t peak_flows = 0;
    // runUntil evaluates the predicate before every event, so this checks
    // the state left by each executed event (and the initial one).
    ctx.sim.runUntil([&]() {
        peak_flows = std::max(peak_flows, ctx.net.activeFlows());
        ok = matchesOracle(ctx, carried);
        return !ok;
    });
    ASSERT_TRUE(ok) << "after " << ctx.sim.eventsExecuted() << " events";
    ASSERT_TRUE(ctx.graph.done());
    EXPECT_GT(peak_flows, 1u) << "the workload never contended";

    const auto engine = makeEngine(model, {}, system);
    const auto fresh = make();
    EXPECT_EQ(ctx.sim.eventsExecuted(), engine->run(*fresh).events_executed);
}

TEST(FlowOracleWorkloads, ScaleoutRingAllReduceAtFourNodes)
{
    const auto model = ModelSpec::gpt2(0.5);
    SystemConfig system;
    system.strategy = Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    system.num_nodes = 4;
    expectOracleHoldsThroughout(model, system, [&]() {
        return std::make_unique<TrainingWorkload>(model, TrainConfig{});
    });
}

TEST(FlowOracleWorkloads, ServeStreamOnOneReplica)
{
    const auto model = ModelSpec::gpt2(0.5);
    SystemConfig system;
    system.strategy = Strategy::SmartUpdateOptComp;
    system.num_devices = 4;

    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.num_requests = 300;
    config.arrival_rate = 8.0;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.max_batch = 8;
    expectOracleHoldsThroughout(model, system, [&]() {
        return std::make_unique<serve::InferenceWorkload>(model, config);
    });
}

TEST(FlowOracleWorkloads, PagedPrefixKvSpillOnTwoReplicas)
{
    const auto model = ModelSpec::gpt2(4.0);
    SystemConfig system;
    system.strategy = Strategy::SmartUpdateOptComp;
    system.num_devices = 6;
    system.num_nodes = 2;

    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.num_requests = 40;
    config.arrival_rate = 1.0;
    config.prompt_tokens = 256;
    config.output_tokens = 16;
    config.max_batch = 8;
    config.kv.enabled = true;
    config.kv.hbm_budget = GiB(0.25);
    config.kv.host_budget = GiB(0.5);
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.block_tokens = 16;
    config.kv.prefix.share_fraction = 0.5;
    config.kv.prefix.num_prefixes = 4;
    config.kv.prefix.prefix_tokens = 200;
    config.ctrl.enabled = true;
    config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    expectOracleHoldsThroughout(model, system, [&]() {
        return std::make_unique<serve::InferenceWorkload>(model, config);
    });
}

TEST(FlowOracleWorkloads, ServeFailoverWithCrashesAndLinkDegrades)
{
    const auto model = ModelSpec::gpt2(0.5);
    SystemConfig system;
    system.strategy = Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    system.num_nodes = 2;

    serve::ServeConfig config;
    config.num_requests = 24;
    config.arrival_rate = 0.2;
    config.prompt_tokens = 64;
    config.output_tokens = 6;
    config.max_batch = 4;
    config.fault.enabled = true;
    config.fault.node_mtbf = 20.0;
    config.fault.repair_time = 15.0;
    config.fault.degrade_mtbf = 10.0;
    config.fault.degrade_duration = 5.0;
    config.fault.horizon = 300.0;
    expectOracleHoldsThroughout(model, system, [&]() {
        return std::make_unique<serve::InferenceWorkload>(model, config);
    });
}

TEST(FlowOracleWorkloads, CheckpointedTrainingWithCrashesAndDegrades)
{
    const auto model = ModelSpec::gpt2(0.5);
    SystemConfig system;
    system.strategy = Strategy::SmartUpdateOptComp;
    system.num_devices = 4;

    fault::FaultConfig faults;
    faults.enabled = true;
    faults.num_iterations = 4;
    faults.node_mtbf = 2.0;
    faults.degrade_mtbf = 1.0;
    faults.repair_time = 2.0;
    faults.horizon = 40.0;
    expectOracleHoldsThroughout(model, system, [&]() {
        return std::make_unique<fault::CheckpointedTrainingWorkload>(
            model, TrainConfig{}, faults);
    });
}

} // namespace
} // namespace smartinf::train
