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

/** A seam that never completes a transfer; flow ids count up from
 *  @c next in launch order, and cancellations are recorded. */
struct CountingSeam final : TransferSeam {
    uint64_t next = 0;
    std::vector<uint64_t> cancelled;
    uint64_t
    startTransfer(const TransferRoute &, Bytes, Notify) override
    {
        return next++;
    }
    void cancelTransfer(uint64_t flow) override { cancelled.push_back(flow); }
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

TEST(TaskRevocation, InterleavedDomainRunsRevokeExactlyTheirTasks)
{
    // Domain A, no domain, B, then A again: A's tasks form two id runs.
    // Every task is a transfer launched in id order, so its flow id is its
    // task id and the cancel order shows the revocation order.
    Callbacks cb;
    Simulator sim;
    CountingSeam seam;
    TaskGraph g(sim, &seam);
    g.start();

    const TaskGraph::Domain a = g.openDomain();
    const TaskGraph::Domain b = g.openDomain();
    const TransferRoute route;
    std::vector<TaskGraph::TaskId> in_a, in_b, unstamped;
    const auto add = [&](TaskGraph::Domain d, int n,
                         std::vector<TaskGraph::TaskId> &ids) {
        g.setCurrentDomain(d);
        for (int i = 0; i < n; ++i)
            ids.push_back(g.transfer(route, 1.0));
    };
    add(a, 3, in_a);
    add(TaskGraph::kNoDomain, 2, unstamped);
    add(b, 2, in_b);
    add(a, 2, in_a);
    g.setCurrentDomain(TaskGraph::kNoDomain);
    g.releaseRange(0, g.taskCount());
    EXPECT_EQ(seam.next, g.taskCount()); // Flow id == task id.
    EXPECT_EQ(g.domainRunsAllocated(), 4u);

    sim.at(1.0, cb.park([&]() {
        EXPECT_EQ(g.revokeDomain(a), in_a.size());
        EXPECT_EQ(seam.cancelled,
                  std::vector<uint64_t>(in_a.begin(), in_a.end()));
        for (const auto id : in_a)
            EXPECT_TRUE(g.abandoned(id));
        for (const auto id : in_b)
            EXPECT_FALSE(g.abandoned(id));
        for (const auto id : unstamped)
            EXPECT_FALSE(g.abandoned(id));
        EXPECT_EQ(g.revokeDomain(a), 0u);
        EXPECT_EQ(g.revokeDomain(b), in_b.size());
        for (const auto id : unstamped)
            EXPECT_FALSE(g.abandoned(id));
        seam.cancelled.clear();
        // What is left: the unstamped pair, still in flight.
        EXPECT_FALSE(g.done());
    }));
    sim.run();
    EXPECT_TRUE(seam.cancelled.empty());
}

TEST(TaskRevocation, RevokingAPartlyTrimmedDomainSkipsTheTrimmedTasks)
{
    // A domain's first tasks complete and are trimmed while it stays
    // current; revoking it then abandons only its stored, live tasks.
    Callbacks cb;
    Simulator sim;
    TaskGraph g(sim);
    g.start();

    const TaskGraph::Domain d = g.openDomain();
    g.setCurrentDomain(d);
    for (int i = 0; i < 3000; ++i)
        g.release(g.barrier());
    const auto live = g.delay(10.0, "live");
    g.release(live);
    g.setCurrentDomain(TaskGraph::kNoDomain);
    const auto bystander = g.delay(10.0, "bystander");
    g.release(bystander);
    EXPECT_THROW(g.label(0), std::logic_error); // Trimmed.

    sim.at(1.0, cb.park([&]() {
        EXPECT_EQ(g.revokeDomain(d), 1u);
        EXPECT_TRUE(g.abandoned(live));
        EXPECT_FALSE(g.abandoned(bystander));
    }));
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(g.makespan(), 10.0);
}

TEST(TaskRevocation, TrimmedStreamOfDomainsKeepsRunTableBounded)
{
    // 10^4 serving-shaped steps, each a root and a notify leaf in its own
    // domain: one run per step. Trim drops the runs wholly below its
    // front, so the table holds only the runs of the untrimmed tail, not
    // one per step ever taken. That tail is at most a partial 1024-task
    // block plus the 1024 completions between trims: ~2048 tasks, ~1024
    // steps.
    Callbacks cb;
    constexpr int kSteps = 10000;
    constexpr int kRevoked = 5000;
    Simulator sim;
    TaskGraph g(sim);
    g.start();

    int ran = 0;
    TaskGraph::Domain revoked = TaskGraph::kNoDomain;
    for (int i = 0; i < kSteps; ++i) {
        sim.at(i, cb.park([&, i] {
            const TaskGraph::Domain d = g.openDomain();
            if (i == kRevoked)
                revoked = d;
            g.setCurrentDomain(d);
            const auto root = g.delay(i == kRevoked ? 10.0 : 0.5);
            const auto leaf = g.notify(cb.park([&ran] { ++ran; }));
            g.dependsOn(leaf, root);
            g.setCurrentDomain(TaskGraph::kNoDomain);
            g.releaseRange(root, g.taskCount());
        }));
    }
    sim.at(kRevoked + 0.75,
           cb.park([&] { EXPECT_EQ(g.revokeDomain(revoked), 2u); }));
    sim.run();

    EXPECT_TRUE(g.done());
    EXPECT_EQ(g.taskCount(), 2u * kSteps);
    EXPECT_EQ(ran, kSteps - 1);
    EXPECT_THROW(g.label(0), std::logic_error); // Trimmed.
    EXPECT_LE(g.domainRunsAllocated(), 1100u);
}

TEST(TaskRevocation, FaultFreeGraphRecordsNoDomainRuns)
{
    Simulator sim;
    TaskGraph g(sim);
    const auto a = g.delay(1.0);
    g.dependsOn(g.barrier(), a);
    g.setCurrentDomain(TaskGraph::kNoDomain);
    g.barrier();
    g.start();
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_EQ(g.domainRunsAllocated(), 0u);
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
