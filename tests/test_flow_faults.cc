/**
 * @file
 * Fault seams in the flow network: time-varying link capacity and flow
 * revocation. The acceptance bar is the PR 3 oracle pattern — after EVERY
 * event, including each mid-run capacity degrade/restore and each
 * cancellation, the incremental scheduler must match oracleRates() bit for
 * bit. A capacity factor of exactly 1.0 must be a perfect no-op, and
 * overlapping fault episodes (fault::LinkEpisodes) must restore a link to
 * exactly its nominal capacity whatever order they end in.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "callbacks.h"
#include "common/random.h"
#include "fault/fault_schedule.h"
#include "net/flow_network.h"
#include "net/topology.h"
#include "train/sim_context.h"

namespace smartinf::net {
namespace {

using test::Callbacks;

bool
stepOne(sim::Simulator &sim)
{
    int budget = 1;
    sim.runUntil([&budget]() { return budget-- <= 0; });
    return budget < 0;
}

void
expectMatchesOracle(FlowNetwork &net)
{
    const auto snap = net.oracleRates();
    ASSERT_EQ(snap.rates.size(), net.activeFlows());
    for (const auto &[id, rate] : snap.rates)
        EXPECT_EQ(net.currentRate(id), rate) << "flow " << id;
    for (const auto &[link, agg] : snap.link_rates)
        EXPECT_EQ(net.linkAggregateRate(link), agg) << "link " << link->name();
    EXPECT_EQ(net.components(), net.oracleComponents());
}

TEST(FlowFaults, CapacityChangeMatchesOracleAfterEveryEvent)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    std::vector<Link *> links;
    for (int i = 0; i < 4; ++i)
        links.push_back(&topo.addLink("l" + std::to_string(i), 80.0 + 30.0 * i));
    Link &trunk = topo.addLink("trunk", 150.0);

    Rng rng(20260808);
    int completed = 0;
    int churn = 120;
    std::function<void(int)> launch = [&](int n) {
        for (int i = 0; i < n; ++i) {
            Route route{links[rng.uniformInt(4)]};
            if (rng.uniform() < 0.5)
                route.push_back(&trunk);
            const double latency =
                rng.uniform() < 0.2 ? rng.uniform(0.01, 1.0) : 0.0;
            net.startFlow(std::move(route), rng.uniform(100.0, 3000.0),
                          cb.park([&]() {
                              ++completed;
                              if (churn > 0) {
                                  --churn;
                                  launch(1);
                              }
                          }),
                          latency);
        }
    };
    launch(30);

    // A degrade/restore episode train on the trunk and one leaf link,
    // interleaved with the flow churn. Each episode flips the factor and
    // notifies the network mid-run.
    auto episode = [&](Link *link, double factor, double at, double duration) {
        sim.at(at, cb.park([&net, link, factor]() {
            link->setCapacityFactor(factor);
            net.linkCapacityChanged(link);
        }));
        sim.at(at + duration, cb.park([&net, link]() {
            link->setCapacityFactor(1.0);
            net.linkCapacityChanged(link);
        }));
    };
    for (int e = 0; e < 6; ++e) {
        episode(&trunk, 0.25 + 0.1 * e, 2.0 + 7.0 * e, 3.5);
        episode(links[e % 4], 0.5, 4.0 + 6.0 * e, 2.0);
    }

    int events = 0;
    while (stepOne(sim)) {
        ++events;
        expectMatchesOracle(net);
        ASSERT_LT(events, 200000) << "simulation failed to drain";
    }
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(completed, 30 + 120);
}

TEST(FlowFaults, UnityFactorIsExactNoOp)
{
    // factor = 1.0 must leave the cached capacity bit-identical, so a
    // notification with an unchanged factor recomputes nothing.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 123.456789);
    EXPECT_EQ(link.effectiveCapacity(), link.capacity());
    link.setCapacityFactor(1.0);
    EXPECT_EQ(link.effectiveCapacity(), link.capacity());

    bool done = false;
    net.startFlow({&link}, 1000.0, cb.park([&]() { done = true; }));
    const double before = net.currentRate(0);
    net.linkCapacityChanged(&link); // No-op: factor unchanged.
    EXPECT_EQ(net.currentRate(0), before);
    sim.run();
    EXPECT_TRUE(done);
}

TEST(FlowFaults, CapacityFactorOutsideUnitIntervalIsFatal)
{
    // A fault only ever scales a link down: a factor outside (0, 1] would
    // starve the link or lift it past its nominal capacity.
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    EXPECT_THROW(link.setCapacityFactor(0.0), std::runtime_error);
    EXPECT_THROW(link.setCapacityFactor(1.5), std::runtime_error);
    EXPECT_THROW(
        link.setCapacityFactor(std::numeric_limits<double>::quiet_NaN()),
        std::runtime_error);
    EXPECT_EQ(link.effectiveCapacity(), 100.0);
}

TEST(FlowFaults, DegradeSlowsAndRestoreSpeedsCompletion)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);

    double finish = -1.0;
    net.startFlow({&link}, 1000.0, cb.park([&]() { finish = sim.now(); }));
    // Halve capacity over t=[2,6]: 2 s at 100 B/s + 4 s at 50 B/s moves
    // 400 B; the remaining 600 B at 100 B/s lands at t = 12.
    sim.at(2.0, cb.park([&]() {
        link.setCapacityFactor(0.5);
        net.linkCapacityChanged(&link);
    }));
    sim.at(6.0, cb.park([&]() {
        link.setCapacityFactor(1.0);
        net.linkCapacityChanged(&link);
    }));
    sim.run();
    EXPECT_NEAR(finish, 12.0, 1e-9);
    // Utilization integrates fraction-of-effective-capacity: busy the whole
    // 12 s (the flow was always backlogged).
    EXPECT_NEAR(link.busyIntegral(), 12.0, 1e-9);
    EXPECT_NEAR(link.bytesCarried(), 1000.0, 1.0);
}

TEST(FlowFaults, OverlappingEpisodesRestoreExactlyInEitherOrder)
{
    // Two link-degradation episodes overlap on node 1's host interconnect.
    // The factor is the exact product of the active episodes, so ending
    // them in either order leaves every link at exactly its nominal
    // capacity (dividing the factors back out would not:
    // 0.1 * 0.3 / 0.1 != 0.3 in IEEE).
    Callbacks cb;
    const double cap = 123.456789;
    for (const bool first_in_first_out : {true, false}) {
        train::SystemConfig system;
        system.num_nodes = 2;
        train::SimContext ctx(system);
        FlowNetwork &net = ctx.net;
        Topology &topo = ctx.topo;
        for (const char *node : {"n0.", "n1."}) {
            const std::string n = node;
            topo.addLink(n + "host.up", cap);
            topo.addLink(n + "host.down", cap);
        }
        Link &up = topo.link("n1.host.up");
        net.startFlow({&up}, 1000.0, cb.park([]() {}));
        const double rate = net.currentRate(0);

        fault::LinkEpisodes episodes(ctx);
        fault::FaultEvent a;
        a.kind = fault::FaultKind::LinkDegrade;
        a.node = 1;
        a.factor = 0.1;
        fault::FaultEvent b = a;
        b.factor = 0.3;
        episodes.begin(a);
        episodes.begin(b);

        EXPECT_EQ(up.effectiveCapacity(), cap * (0.1 * 0.3));
        EXPECT_EQ(topo.link("n1.host.down").effectiveCapacity(),
                  cap * (0.1 * 0.3));
        EXPECT_EQ(topo.link("n0.host.up").effectiveCapacity(), cap);
        expectMatchesOracle(net);

        episodes.end(first_in_first_out ? a : b);
        EXPECT_EQ(up.effectiveCapacity(),
                  cap * (first_in_first_out ? 0.3 : 0.1));
        episodes.end(first_in_first_out ? b : a);
        expectMatchesOracle(net);
        for (const char *name : {"n1.host.up", "n1.host.down"})
            EXPECT_EQ(topo.link(name).effectiveCapacity(), cap) << name;
        EXPECT_EQ(net.currentRate(0), rate);
    }
}

TEST(FlowFaults, CancelBulkFlowDropsCallbackAndSpeedsSurvivor)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);

    bool cancelled_ran = false;
    double survivor_finish = -1.0;
    const FlowId victim =
        net.startFlow({&link}, 1000.0,
                      cb.park([&]() { cancelled_ran = true; }));
    net.startFlow({&link}, 1000.0,
                  cb.park([&]() { survivor_finish = sim.now(); }));

    sim.at(4.0, cb.park([&]() {
        EXPECT_TRUE(net.cancelFlow(victim));
        expectMatchesOracle(net);
        EXPECT_EQ(net.activeFlows(), 1u);
        // Survivor inherits the full link.
        EXPECT_EQ(net.currentRate(1), 100.0);
    }));
    sim.run();
    EXPECT_FALSE(cancelled_ran);
    // Survivor: 4 s at 50 B/s (200 B) + 800 B at 100 B/s → t = 12.
    EXPECT_NEAR(survivor_finish, 12.0, 1e-9);
    // The victim's partial 200 B still count as delivered work.
    EXPECT_NEAR(net.totalBytesDelivered(), 1200.0, 1.0);
}

TEST(FlowFaults, CancelLatencyPhaseFlowNeverContends)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);

    bool ran = false;
    const FlowId id =
        net.startFlow({&link}, 500.0,
                      cb.park([&]() { ran = true; }), /*latency=*/5.0);
    sim.at(1.0, cb.park([&]() { EXPECT_TRUE(net.cancelFlow(id)); }));
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(net.totalBytesDelivered(), 0.0);
}

TEST(FlowFaults, SecondCancelOfLatencyPhaseFlowReportsNothing)
{
    // A latency-phase flow keeps its slot until its delayed start lands,
    // but once revoked it cannot be revoked again: the second call
    // returns false and the observer hears of one cancellation.
    Callbacks cb;
    struct Cancels : FlowObserver {
        int count = 0;
        void flowCancelled(FlowId, Seconds) override { ++count; }
    } cancels;
    sim::Simulator sim;
    FlowNetwork net(sim);
    net.setObserver(&cancels);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);

    bool ran = false;
    const FlowId id =
        net.startFlow({&link}, 500.0,
                      cb.park([&]() { ran = true; }), /*latency=*/5.0);
    sim.at(1.0, cb.park([&]() {
        EXPECT_TRUE(net.cancelFlow(id));
        EXPECT_FALSE(net.cancelFlow(id));
    }));
    sim.at(6.0, cb.park([&]() { EXPECT_FALSE(net.cancelFlow(id)); }));
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(cancels.count, 1);
    EXPECT_EQ(net.totalBytesDelivered(), 0.0);
}

TEST(FlowFaults, CancelCompletedFlowReturnsFalse)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);

    int done = 0;
    const FlowId id = net.startFlow({&link}, 100.0, cb.park([&]() { ++done; }));
    sim.run();
    EXPECT_EQ(done, 1);
    EXPECT_FALSE(net.cancelFlow(id));
}

} // namespace
} // namespace smartinf::net
