/** @file Tests for the dist/ ring all-reduce: the analytic wire-byte
 *  formula and the flow-schedule performance layer. */
#include <gtest/gtest.h>

#include <vector>

#include "dist/collective.h"
#include "task_times.h"
#include "train/system_builder.h"

namespace smartinf::dist {
namespace {

// ---- analytic formulas ------------------------------------------------------

TEST(CollectiveBytes, RingAllReduceFormula)
{
    const Bytes buffer = 1e9;
    for (int nodes : {1, 2, 3, 4, 8, 16}) {
        const Bytes expected = 2.0 * (nodes - 1) / nodes * buffer;
        EXPECT_NEAR(ringAllReduceTxBytesPerNode(buffer, nodes), expected,
                    1e-9 * buffer)
            << nodes;
    }
}

TEST(CollectiveBytes, SingleNodeMovesNothing)
{
    EXPECT_DOUBLE_EQ(ringAllReduceTxBytesPerNode(1e9, 1), 0.0);
}

// ---- performance layer ------------------------------------------------------

/** A SimContext with NIC + host links for @p nodes identical nodes. */
struct Fabric {
    explicit Fabric(int nodes) : system(makeSystem(nodes)), ctx(system)
    {
        for (int i = 0; i < nodes; ++i)
            train::buildNodeLinks(ctx.topo, system, train::nodePrefix(i));
        train::buildNicLinks(ctx.topo, system);
    }

    static train::SystemConfig
    makeSystem(int nodes)
    {
        train::SystemConfig sc;
        sc.num_nodes = nodes;
        sc.num_devices = 1;
        return sc;
    }

    train::SystemConfig system;
    train::SimContext ctx;
    test::TaskTimes times{ctx.sim};
};

TEST(CollectiveSchedule, AccountsRingAllReduceTraffic)
{
    const int nodes = 4;
    const Bytes bytes = GB(1.0);
    Fabric f(nodes);
    const CollectiveSchedule cs =
        scheduleRingAllReduce(f.ctx, nodes, bytes, {}, "ar");
    f.ctx.graph.start();
    f.ctx.sim.run();
    ASSERT_TRUE(f.ctx.graph.done());

    EXPECT_EQ(cs.steps, 2 * (nodes - 1));
    const Bytes expected = ringAllReduceTxBytesPerNode(bytes, nodes);
    EXPECT_NEAR(cs.tx_bytes_per_node, expected, 1e-9 * bytes);
    EXPECT_NEAR(f.ctx.traffic.internode_tx, nodes * expected,
                1e-9 * nodes * bytes);
    EXPECT_DOUBLE_EQ(f.ctx.traffic.internode_rx, f.ctx.traffic.internode_tx);
    EXPECT_GT(f.times.finish(cs.done), 0.0);
}

TEST(CollectiveSchedule, GatingDependenciesDelayTheRing)
{
    const int nodes = 2;
    Fabric f(nodes);
    const Seconds gate = 0.25;
    std::vector<sim::TaskGraph::TaskId> deps;
    for (int i = 0; i < nodes; ++i)
        deps.push_back(f.ctx.graph.delay(gate, "gate"));
    const auto cs = scheduleRingAllReduce(f.ctx, nodes, MB(64.0), deps, "ar");
    f.ctx.graph.start();
    f.ctx.sim.run();
    ASSERT_TRUE(f.ctx.graph.done());
    EXPECT_GT(f.times.finish(cs.done), gate);
}

TEST(CollectiveSchedule, BiggerBuffersTakeLonger)
{
    const int nodes = 4;
    Fabric small(nodes), big(nodes);
    const auto s = scheduleRingAllReduce(small.ctx, nodes, GB(0.5), {}, "s");
    small.ctx.graph.start();
    small.ctx.sim.run();
    const auto b = scheduleRingAllReduce(big.ctx, nodes, GB(2.0), {}, "b");
    big.ctx.graph.start();
    big.ctx.sim.run();
    EXPECT_GT(big.times.finish(b.done),
              small.times.finish(s.done));
}

TEST(CollectiveSchedule, SingleNodeIsANoOp)
{
    Fabric f(1);
    const auto cs = scheduleRingAllReduce(f.ctx, 1, GB(1.0), {}, "ar");
    f.ctx.graph.start();
    f.ctx.sim.run();
    ASSERT_TRUE(f.ctx.graph.done());
    EXPECT_EQ(cs.steps, 0);
    EXPECT_DOUBLE_EQ(cs.tx_bytes_per_node, 0.0);
    EXPECT_DOUBLE_EQ(f.ctx.traffic.internode_tx, 0.0);
}

TEST(CollectiveSchedule, RejectsBadArguments)
{
    Fabric f(2);
    EXPECT_THROW(scheduleRingAllReduce(f.ctx, 0, 1.0, {}, "x"),
                 std::runtime_error);
    EXPECT_THROW(
        scheduleRingAllReduce(f.ctx, 2, 1.0, {f.ctx.graph.barrier()}, "x"),
        std::runtime_error);
}

} // namespace
} // namespace smartinf::dist
