/**
 * @file
 * Revocation-domain semantics in the task graph (the fault-injection seam):
 * abandoned tasks count toward done(), late resource completions drain as
 * no-ops, launched transfers' flows are cancelled in ascending task-id
 * order, and fault-free graphs never pay for any of it.
 */
#include <gtest/gtest.h>

#include <vector>

#include "callbacks.h"
#include "net/flow_network.h"
#include "net/topology.h"
#include "sim/task_graph.h"

namespace smartinf::sim {
namespace {

using test::Callbacks;

/** A transfer route over a bare network's links. */
struct LinkRoute : TransferRoute {
    explicit LinkRoute(net::Route links) : links(std::move(links)) {}
    net::Route links;
};

/** Starts transfer tasks' flows on a bare network, as SimContext does. */
struct NetSeam final : TransferSeam {
    explicit NetSeam(net::FlowNetwork &net) : net(net) {}
    uint64_t
    startTransfer(const TransferRoute &route, Bytes bytes,
                  Notify done) override
    {
        return net.startFlow(static_cast<const LinkRoute &>(route).links,
                             bytes, done);
    }
    void cancelTransfer(uint64_t flow) override { net.cancelFlow(flow); }
    net::FlowNetwork &net;
};

TEST(TaskRevocation, RevokedDomainCountsTowardDone)
{
    Callbacks cb;
    Simulator sim;
    TaskGraph g(sim);
    g.start();

    const TaskGraph::Domain d = g.openDomain();
    g.setCurrentDomain(d);
    const auto first = g.taskCount();
    const auto a = g.delay(10.0, "a");
    const auto b = g.delay(1.0, "b");
    g.dependsOn(b, a);
    g.setCurrentDomain(TaskGraph::kNoDomain);
    g.releaseRange(first, g.taskCount());

    sim.at(2.0, cb.park([&]() { EXPECT_EQ(g.revokeDomain(d), 2u); }));
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_TRUE(g.abandoned(a));
    EXPECT_TRUE(g.abandoned(b));
    // The abandoned delay's timer still fires at t=10 as a discarded no-op,
    // but makespan reflects the revocation time.
    EXPECT_DOUBLE_EQ(g.makespan(), 2.0);
}

TEST(TaskRevocation, LateResourceCompletionIsNoOp)
{
    Callbacks cb;
    Simulator sim;
    Resource r(sim, "r", 1.0);
    TaskGraph g(sim);
    g.start();

    const TaskGraph::Domain d = g.openDomain();
    g.setCurrentDomain(d);
    const auto first = g.taskCount();
    const auto job = g.compute(r, 8.0, "job"); // Runs until t=8.
    g.setCurrentDomain(TaskGraph::kNoDomain);
    g.releaseRange(first, g.taskCount());

    // A live task outside the domain, sequenced after the revoked job on
    // the same resource: the dead job drains first (discarded), then this
    // one runs — "the GPU finishes its current kernel, results dropped".
    bool survivor_done = false;
    sim.at(3.0, cb.park([&]() {
        g.revokeDomain(d);
        const auto t = g.compute(r, 2.0, "survivor");
        const auto seen =
            g.notify(cb.park([&survivor_done]() { survivor_done = true; }));
        g.dependsOn(seen, t);
        g.releaseRange(t, g.taskCount());
        EXPECT_TRUE(g.abandoned(job));
        EXPECT_FALSE(g.done()); // survivor still pending
    }));
    sim.run();
    EXPECT_TRUE(survivor_done);
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(g.makespan(), 10.0); // 8 (dead job drains) + 2.
}

TEST(TaskRevocation, RevokedTransferCancelsItsInFlightFlow)
{
    Callbacks cb;
    Simulator sim;
    net::FlowNetwork net(sim);
    net::Topology topo;
    net::Link &link = topo.addLink("l", 100.0);
    NetSeam seam(net);
    TaskGraph g(sim, &seam);
    g.start();

    const TaskGraph::Domain d = g.openDomain();
    g.setCurrentDomain(d);
    const auto first = g.taskCount();
    const LinkRoute route({&link});
    const auto xfer = g.transfer(route, 1000.0, "xfer");
    // Runs only if the transfer completes.
    bool transfer_done = false;
    const auto after =
        g.notify(cb.park([&transfer_done]() { transfer_done = true; }),
                 "after");
    g.dependsOn(after, xfer);
    g.setCurrentDomain(TaskGraph::kNoDomain);
    g.releaseRange(first, g.taskCount());

    sim.at(4.0, cb.park([&]() {
        EXPECT_EQ(net.activeFlows(), 1u);
        g.revokeDomain(d);
        EXPECT_EQ(net.activeFlows(), 0u); // The revocation pulled the flow.
    }));
    sim.run();
    EXPECT_FALSE(transfer_done);
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(net.totalBytesDelivered(), 400.0); // Settled at t=4.
}

TEST(TaskRevocation, RevokedTransfersCancelInAscendingIdOrder)
{
    // A seam that never completes a transfer and hands out flow ids in
    // descending order, so the cancel order shows the task order.
    Callbacks cb;
    struct RecordingSeam final : TransferSeam {
        uint64_t next = 100;
        std::vector<uint64_t> cancelled;
        uint64_t
        startTransfer(const TransferRoute &, Bytes, Notify) override
        {
            return next--;
        }
        void
        cancelTransfer(uint64_t flow) override
        {
            cancelled.push_back(flow);
        }
    };
    Simulator sim;
    RecordingSeam seam;
    TaskGraph g(sim, &seam);
    g.start();

    const TaskGraph::Domain d = g.openDomain();
    g.setCurrentDomain(d);
    const auto first = g.taskCount();
    const TransferRoute route;
    for (int i = 0; i < 4; ++i)
        g.transfer(route, 1.0, {"t", i});
    g.setCurrentDomain(TaskGraph::kNoDomain);
    g.releaseRange(first, g.taskCount());

    sim.at(1.0, cb.park([&]() { g.revokeDomain(d); }));
    sim.run();
    EXPECT_EQ(seam.cancelled, (std::vector<uint64_t>{100, 99, 98, 97}));
    EXPECT_TRUE(g.done());
}

TEST(TaskRevocation, UnlaunchedTasksAbandonWithoutCancellers)
{
    Callbacks cb;
    Simulator sim;
    TaskGraph g(sim);
    g.start();

    const TaskGraph::Domain d = g.openDomain();
    g.setCurrentDomain(d);
    const auto first = g.taskCount();
    const auto gate = g.delay(100.0, "gate");
    const auto blocked = g.barrier("blocked");
    g.dependsOn(blocked, gate);
    g.setCurrentDomain(TaskGraph::kNoDomain);
    g.releaseRange(first, g.taskCount());

    sim.at(1.0, cb.park([&]() {
        EXPECT_EQ(g.revokeDomain(d), 2u);
        // Re-revoking is idempotent: everything is already gone.
        EXPECT_EQ(g.revokeDomain(d), 0u);
    }));
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_TRUE(g.abandoned(blocked));
}

TEST(TaskRevocation, DomainlessGraphUnaffectedByForeignRevocation)
{
    // A fault-free graph (no domains) must behave exactly as
    // before; revoking an empty domain is a no-op.
    Simulator sim;
    TaskGraph g(sim);
    const auto a = g.delay(1.0, "a");
    const auto b = g.delay(2.0, "b");
    g.dependsOn(b, a);
    const TaskGraph::Domain d = g.openDomain(); // Never made current.
    g.start();
    sim.run();
    EXPECT_EQ(g.revokeDomain(d), 0u);
    EXPECT_TRUE(g.done());
    EXPECT_FALSE(g.abandoned(a));
    EXPECT_DOUBLE_EQ(g.makespan(), 3.0);
}

} // namespace
} // namespace smartinf::sim
