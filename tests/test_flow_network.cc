/** @file Tests for the max-min fair fluid-flow network. */
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "callbacks.h"
#include "net/flow_network.h"
#include "net/topology.h"

namespace smartinf::net {
namespace {

using test::Callbacks;

/** Rates, link aggregates and components equal the from-scratch oracles
 *  bit for bit, and the completion heap holds one entry per component. */
void
expectOracles(const FlowNetwork &net)
{
    const auto snap = net.oracleRates();
    ASSERT_EQ(snap.rates.size(), net.activeFlows());
    for (const auto &[id, rate] : snap.rates)
        EXPECT_EQ(net.currentRate(id), rate) << "flow " << id;
    for (const auto &[link, agg] : snap.link_rates)
        EXPECT_EQ(net.linkAggregateRate(link), agg) << link->name();
    const FlowNetwork::Partition parts = net.components();
    EXPECT_EQ(parts, net.oracleComponents());
    EXPECT_EQ(net.completionHeapSize(), parts.size());
}

/** Run @p sim to the end one event at a time, checking the oracles after
 *  each. */
void
runCheckingEachEvent(sim::Simulator &sim, const FlowNetwork &net)
{
    for (int budget = 1; !sim.queue().empty(); budget = 1) {
        sim.runUntil([&budget]() { return budget-- <= 0; });
        expectOracles(net);
    }
}

TEST(FlowNetwork, SingleFlowUsesFullCapacity)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    double done_at = -1.0;
    net.startFlow({&link}, 500.0, cb.park([&]() { done_at = sim.now(); }));
    sim.run();
    EXPECT_NEAR(done_at, 5.0, 1e-6);
    EXPECT_NEAR(link.bytesCarried(), 500.0, 1.0);
}

TEST(FlowNetwork, OneNetworkPerSimulator)
{
    // The network owns its simulator's completion alarm; a second network
    // must fail loudly instead of silently taking the alarm over.
    sim::Simulator sim;
    FlowNetwork net(sim);
    EXPECT_THROW(FlowNetwork second(sim), std::runtime_error);
    EXPECT_TRUE(sim.queue().empty());
}

TEST(FlowNetwork, TwoFlowsShareFairly)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    std::vector<double> done;
    net.startFlow({&link}, 500.0,
                  cb.park([&]() { done.push_back(sim.now()); }));
    net.startFlow({&link}, 500.0,
                  cb.park([&]() { done.push_back(sim.now()); }));
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    // Equal shares: both complete at t=10 (500/(100/2)).
    EXPECT_NEAR(done[0], 10.0, 1e-6);
    EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongSpeedsUp)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    double short_done = -1.0, long_done = -1.0;
    net.startFlow({&link}, 100.0, cb.park([&]() { short_done = sim.now(); }));
    net.startFlow({&link}, 500.0, cb.park([&]() { long_done = sim.now(); }));
    sim.run();
    // Short: 100 bytes at 50 B/s -> t=2. Long: 100 bytes by t=2, then
    // 400 bytes at full 100 B/s -> t=6.
    EXPECT_NEAR(short_done, 2.0, 1e-6);
    EXPECT_NEAR(long_done, 6.0, 1e-6);
}

TEST(FlowNetwork, MaxMinRespectsPerFlowBottleneck)
{
    // Flow A crosses narrow+wide, flow B only wide. A is limited to 10 by
    // its narrow link; B gets the leftover 90 of the wide link.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &narrow = topo.addLink("narrow", 10.0);
    Link &wide = topo.addLink("wide", 100.0);
    double a_done = -1.0, b_done = -1.0;
    net.startFlow({&narrow, &wide}, 100.0,
                  cb.park([&]() { a_done = sim.now(); }));
    net.startFlow({&wide}, 900.0, cb.park([&]() { b_done = sim.now(); }));
    sim.run();
    EXPECT_NEAR(a_done, 10.0, 1e-6); // 100 / 10.
    EXPECT_NEAR(b_done, 10.0, 1e-6); // 900 / 90.
}

TEST(FlowNetwork, RoutesWithMultipleSharedLinks)
{
    // Three flows through one 60 B/s link: each gets 20 B/s.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 60.0);
    int completed = 0;
    for (int i = 0; i < 3; ++i)
        net.startFlow({&link}, 200.0, cb.park([&]() { ++completed; }));
    sim.run();
    EXPECT_EQ(completed, 3);
    EXPECT_NEAR(sim.now(), 10.0, 1e-6);
}

TEST(FlowNetwork, ZeroByteFlowCompletes)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 10.0);
    bool done = false;
    net.startFlow({&link}, 0.0, cb.park([&]() { done = true; }));
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim.now(), 0.0, 1e-9);
}

TEST(FlowNetwork, NullCallbackCompletesSilentlyOnEveryPath)
{
    // Regression: a degenerate flow (zero bytes or an empty route) with a
    // null callback scheduled the empty callback and threw out of run(),
    // while a bulk-phase flow with a null callback completed silently.
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    net.startFlow({&link}, 0.0, {});      // zero bytes
    net.startFlow({}, 50.0, {});          // empty route
    net.startFlow({&link}, 0.0, {}, 1.0); // zero bytes after a delay
    net.startFlow({&link}, 100.0, {});    // bulk phase
    EXPECT_NO_THROW(sim.run());
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
    EXPECT_DOUBLE_EQ(net.totalBytesDelivered(), 150.0);
    EXPECT_EQ(net.activeFlows(), 0u);
}

TEST(FlowNetwork, LatencyDelaysBulkPhase)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    double done_at = -1.0;
    net.startFlow({&link}, 100.0, cb.park([&]() { done_at = sim.now(); }), 2.0);
    sim.run();
    EXPECT_NEAR(done_at, 3.0, 1e-6);
}

TEST(FlowNetwork, LatencyFlowKeepsItsIdThroughTheDelay)
{
    // Regression: the id returned for a latency-delayed flow used to refer
    // to a flow that never materialized (the post-delay registration
    // allocated a fresh id), so currentRate(id) stayed 0 forever.
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    const FlowId id = net.startFlow({&link}, 400.0, {}, 2.0);

    EXPECT_DOUBLE_EQ(net.currentRate(id), 0.0); // Still in the delay phase.
    sim.runUntil([&]() { return sim.now() >= 2.0; });
    EXPECT_DOUBLE_EQ(net.currentRate(id), 100.0); // Bulk phase, full link.
    EXPECT_EQ(net.activeFlows(), 1u);
    sim.run();
    EXPECT_DOUBLE_EQ(net.currentRate(id), 0.0); // Completed.
}

TEST(FlowNetwork, CallbackCanStartNewFlow)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    double second_done = -1.0;
    net.startFlow({&link}, 100.0, cb.park([&]() {
        net.startFlow({&link}, 200.0,
                      cb.park([&]() { second_done = sim.now(); }));
    }));
    sim.run();
    EXPECT_NEAR(second_done, 3.0, 1e-6);
}

TEST(FlowNetwork, DeliveredBytesAccumulate)
{
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    net.startFlow({&link}, 123.0, {});
    net.startFlow({&link}, 77.0, {});
    sim.run();
    EXPECT_NEAR(net.totalBytesDelivered(), 200.0, 2.0);
}

TEST(FlowNetwork, LinksOfTwoTopologiesDoNotShareState)
{
    // Link state is indexed by Link::id(), which is dense per topology:
    // a second topology's link 0 must not silently reuse the first's
    // state, so the network refuses it.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology first, second;
    Link &a = first.addLink("a", 100.0);
    Link &b = second.addLink("b", 100.0);
    ASSERT_EQ(a.id(), b.id());
    net.startFlow({&a}, 500.0, cb.park([]() {}));
    EXPECT_EQ(net.linkAggregateRate(&a), 100.0);
    EXPECT_THROW(net.linkAggregateRate(&b), std::logic_error);
    EXPECT_THROW(net.startFlow({&b}, 500.0, cb.park([]() {})),
                 std::logic_error);
}

TEST(FlowNetwork, NonFiniteOrNegativeInputsAreFatal)
{
    // A flow's size and latency set its event times: a negative, infinite
    // or NaN latency would schedule an event in the past or one that never
    // arrives, and an infinite size would deliver NaN bytes at t = inf.
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(net.startFlow({&link}, inf, {}), std::runtime_error);
    EXPECT_THROW(net.startFlow({&link}, 10.0, {}, nan),
                 std::runtime_error);
    EXPECT_THROW(net.startFlow({&link}, 10.0, {}, -1.0),
                 std::runtime_error);
    EXPECT_THROW(net.startFlow({&link}, 10.0, {}, inf),
                 std::runtime_error);
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_TRUE(sim.queue().empty());
}

TEST(FlowNetwork, DelayedCompletionsKeepTheirHeapEntry)
{
    // Each flow joining link c delays the ones already on it. The heap
    // holds one entry per contention component, re-keyed in place at its
    // earliest member's completion, so a delay adds no entry; the
    // completion times are those of a heap that re-keyed every flow on
    // every recompute.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &a = topo.addLink("a", 100.0);
    Link &c = topo.addLink("c", 100.0);
    std::vector<double> done;
    auto record = [&]() { done.push_back(sim.now()); };
    net.startFlow({&a}, 100.0, cb.park(record)); // Alone on a: due at t = 1.
    for (int i = 0; i < 8; ++i)
        net.startFlow({&c}, 1000.0, cb.park(record), 0.1 * i);

    sim.runUntil([&]() { return net.activeFlows() == 9; });
    EXPECT_DOUBLE_EQ(sim.now(), 0.7);
    EXPECT_EQ(net.completionHeapSize(), net.components().size());

    sim.run();
    const std::vector<double> expected{
        1.0,
        78.625714285714281,
        79.325714285714284,
        79.625714285714295,
        79.792380952380952,
        79.892380952380961,
        79.952380952380963,
        79.985714285714295,
        80.000000000000014,
    };
    EXPECT_EQ(done, expected);
}

TEST(FlowNetwork, DisjointComponentsFinishingTogetherRetireInIdOrder)
{
    // Three disjoint components all finish at t = 10, with integer sizes
    // so every completion time is exact:
    //  - x/y: p crosses x (100) and y (300), q only x, r only y. x is the
    //    first bottleneck (p and q at 50), then y gives r the other 250: two
    //    fill rounds.
    //  - b (40): s and t at 20 each.
    //  - c (100): u alone until the latency-delayed flow d, which holds the
    //    lowest id, enters at t = 5; then both run at 50.
    // One completion event retires all seven flows, each component keyed
    // at its own earliest (due, id), and their callbacks run by ascending
    // id, not component by component.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &x = topo.addLink("x", 100.0);
    Link &y = topo.addLink("y", 300.0);
    Link &b = topo.addLink("b", 40.0);
    Link &c = topo.addLink("c", 100.0);
    std::vector<std::pair<FlowId, double>> done;
    auto record = [&](FlowId id) {
        return cb.park([&, id]() { done.emplace_back(id, sim.now()); });
    };
    const std::vector<FlowId> ids{
        net.startFlow({&c}, 250.0, record(0), 5.0),  // d
        net.startFlow({&b}, 200.0, record(1)),       // s
        net.startFlow({&x, &y}, 500.0, record(2)),   // p
        net.startFlow({&c}, 750.0, record(3)),       // u
        net.startFlow({&b}, 200.0, record(4)),       // t
        net.startFlow({&x}, 500.0, record(5)),       // q
        net.startFlow({&y}, 2500.0, record(6)),      // r
    };
    EXPECT_EQ(ids, (std::vector<FlowId>{0, 1, 2, 3, 4, 5, 6}));

    expectOracles(net);
    EXPECT_EQ(net.components(),
              (FlowNetwork::Partition{{1, 4}, {2, 5, 6}, {3}}));
    EXPECT_EQ(net.currentRate(0), 0.0); // Still in its latency phase.
    EXPECT_EQ(net.currentRate(2), 50.0);
    EXPECT_EQ(net.currentRate(6), 250.0);
    runCheckingEachEvent(sim, net);
    const std::vector<std::pair<FlowId, double>> expected{
        {0, 10.0}, {1, 10.0}, {2, 10.0}, {3, 10.0},
        {4, 10.0}, {5, 10.0}, {6, 10.0},
    };
    EXPECT_EQ(done, expected);
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(net.completionHeapSize(), 0u);
}

TEST(FlowNetwork, RoundOneTieGoesToTheFirstTouchedLink)
{
    // p and q carry three flows each at 100 B/s once the latency-delayed
    // flow 0 enters at t = 1, so round one ties at 100/3. The oracle's
    // first-touch order puts q first (flow 0 crosses it), although p has
    // the lower Link::id and comes first in the component's link list
    // (flow 1 brought it in). Flow 2 crosses both, so the second round
    // fills the loser's two other flows at (100 - 100/3) / 2, which
    // rounds differently from 100/3: picking p would move four rates.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &p = topo.addLink("p", 100.0);
    Link &q = topo.addLink("q", 100.0);
    ASSERT_LT(p.id(), q.id());
    std::vector<std::pair<FlowId, double>> done;
    auto record = [&](FlowId id) {
        return cb.park([&, id]() { done.emplace_back(id, sim.now()); });
    };
    net.startFlow({&q}, 1000.0, record(0), 1.0);
    net.startFlow({&p}, 1000.0, record(1));
    net.startFlow({&p, &q}, 1000.0, record(2));
    net.startFlow({&p}, 1000.0, record(3));
    net.startFlow({&q}, 1000.0, record(4));
    expectOracles(net);

    sim.runUntil([&]() { return net.activeFlows() == 5; });
    EXPECT_EQ(sim.now(), 1.0);
    expectOracles(net);
    const double share = 100.0 / 3;
    const double rest = (100.0 - share) / 2;
    ASSERT_NE(share, rest);
    for (FlowId id : {0, 2, 4})
        EXPECT_EQ(net.currentRate(id), share) << "flow " << id;
    for (FlowId id : {1, 3})
        EXPECT_EQ(net.currentRate(id), rest) << "flow " << id;

    runCheckingEachEvent(sim, net);
    EXPECT_EQ(done.size(), 5u);
}

TEST(FlowNetwork, SecondRoundFlowSettlesBeforeItsRateChanges)
{
    // r runs alone on y (300 B/s) from t = 0. At t = 2 p (x and y) and q
    // (x) start: x is the bottleneck at 50 each, and r, 600 bytes in, takes
    // y's other 250 in the second round. Its completion time holds only if
    // those 600 bytes are settled before the new rate applies: 2000 bytes
    // left at 250 B/s is t = 10 exactly.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &x = topo.addLink("x", 100.0);
    Link &y = topo.addLink("y", 300.0);
    std::vector<std::pair<char, double>> done;
    auto record = [&](char name) {
        return cb.park([&, name]() { done.emplace_back(name, sim.now()); });
    };
    net.startFlow({&y}, 2600.0, record('r'));
    sim.at(2.0, cb.park([&]() {
        net.startFlow({&x, &y}, 500.0, record('p'));
        net.startFlow({&x}, 500.0, record('q'));
        EXPECT_EQ(net.currentRate(0), 250.0);
        EXPECT_EQ(net.components(), (FlowNetwork::Partition{{0, 1, 2}}));
    }));
    expectOracles(net);
    runCheckingEachEvent(sim, net);
    const std::vector<std::pair<char, double>> expected{
        {'r', 10.0}, {'p', 12.0}, {'q', 12.0}};
    EXPECT_EQ(done, expected);
}

/**
 * The bridge shape: a alone on l1, b alone on l2, and the bridge c on
 * both, so one contention component holds all three. Once c leaves, the
 * component must split in two, and an event that touches only l1 must
 * then settle only l1's flows. Settling b again would round its remaining
 * bytes, and so its completion time, differently; the rate oracle cannot
 * see that, so these tests pin every completion time bit for bit.
 */
struct Bridge {
    sim::Simulator sim;
    FlowNetwork net{sim};
    Topology topo;
    Link &l1 = topo.addLink("l1", 3.0);
    Link &l2 = topo.addLink("l2", 7.0);
    std::vector<std::pair<char, double>> done;
    Callbacks cb;

    sim::Notify
    record(char name)
    {
        return cb.park([this, name]() { done.emplace_back(name, sim.now()); });
    }
    /** Flows d (t = 2.1) and e (t = 3.1) join l1 while b still runs. */
    void
    joinL1Later()
    {
        sim.at(2.1,
               cb.park([this]() { net.startFlow({&l1}, 5.3, record('d')); }));
        sim.at(3.1,
               cb.park([this]() { net.startFlow({&l1}, 2.2, record('e')); }));
    }
};

TEST(FlowNetwork, BridgeCompletionSplitsItsComponent)
{
    Bridge br;
    br.net.startFlow({&br.l1}, 10.1, br.record('a'));
    br.net.startFlow({&br.l2}, 29.3, br.record('b'));
    br.net.startFlow({&br.l1, &br.l2}, 1.7, br.record('c'));
    EXPECT_EQ(br.net.components(), (FlowNetwork::Partition{{0, 1, 2}}));
    br.sim.runUntil([&]() { return br.net.activeFlows() == 2; });
    EXPECT_EQ(br.net.components(), (FlowNetwork::Partition{{0}, {1}}));
    br.joinL1Later();
    br.sim.run();
    const std::vector<std::pair<char, double>> expected{
        {'c', 1.1333333333333333}, {'b', 4.4285714285714288},
        {'e', 5.3000000000000007}, {'d', 6.3666666666666671},
        {'a', 6.4333333333333336},
    };
    EXPECT_EQ(br.done, expected);
}

TEST(FlowNetwork, BridgeCancelledInBulkSplitsItsComponent)
{
    Callbacks cb;
    Bridge br;
    br.net.startFlow({&br.l1}, 10.1, br.record('a'));
    br.net.startFlow({&br.l2}, 29.3, br.record('b'));
    const FlowId c = br.net.startFlow({&br.l1, &br.l2}, 100.0,
                                      br.record('c'));
    br.sim.at(0.9, cb.park([&]() {
        EXPECT_TRUE(br.net.cancelFlow(c));
        EXPECT_EQ(br.net.components(), (FlowNetwork::Partition{{0}, {1}}));
    }));
    br.joinL1Later();
    br.sim.run();
    const std::vector<std::pair<char, double>> expected{
        {'b', 4.378571428571429},  {'e', 5.3000000000000007},
        {'a', 6.2666666666666666}, {'d', 6.3166666666666664},
    };
    EXPECT_EQ(br.done, expected);
}

TEST(FlowNetwork, CapacityChangeAfterASplitTouchesOneHalf)
{
    Callbacks cb;
    Bridge br;
    br.net.startFlow({&br.l1}, 10.1, br.record('a'));
    br.net.startFlow({&br.l2}, 29.3, br.record('b'));
    br.net.startFlow({&br.l1, &br.l2}, 1.7, br.record('c'));
    br.sim.at(2.1, cb.park([&]() {
        EXPECT_EQ(br.net.components(), (FlowNetwork::Partition{{0}, {1}}));
        br.l1.setCapacityFactor(0.5);
        br.net.linkCapacityChanged(&br.l1);
    }));
    br.sim.at(3.1, cb.park([&]() {
        br.l1.setCapacityFactor(1.0);
        br.net.linkCapacityChanged(&br.l1);
    }));
    br.sim.run();
    const std::vector<std::pair<char, double>> expected{
        {'c', 1.1333333333333333},
        {'b', 4.4285714285714288},
        {'a', 4.4333333333333336},
    };
    EXPECT_EQ(br.done, expected);
}

TEST(FlowNetwork, BridgeListingALinkTwiceSplitsItsComponent)
{
    // The bridge crosses l1 twice and a crosses it twice: l1 is still one
    // shared link, so c's departure leaves two links carrying flows that
    // no single flow covers.
    Bridge br;
    br.net.startFlow({&br.l1, &br.l1}, 10.1, br.record('a'));
    br.net.startFlow({&br.l2}, 29.3, br.record('b'));
    br.net.startFlow({&br.l1, &br.l2, &br.l1}, 1.7, br.record('c'));
    br.joinL1Later(); // d joins before c leaves, e after.
    br.sim.runUntil([&]() { return br.done.size() == 1; });
    EXPECT_EQ(br.done.front().first, 'c');
    EXPECT_EQ(br.net.components(), (FlowNetwork::Partition{{0, 3}, {1}}));
    br.sim.run();
    const std::vector<std::pair<char, double>> expected{
        {'c', 2.3083333333333331}, {'b', 4.4285714285714288},
        {'e', 6.0333333333333332}, {'d', 8.2166666666666668},
        {'a', 10.366666666666665},
    };
    EXPECT_EQ(br.done, expected);
}

TEST(FlowNetwork, UtilizationIntegralIsSane)
{
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);
    net.startFlow({&link}, 1000.0, {}); // Saturates for 10 s.
    sim.run();
    EXPECT_NEAR(link.busyIntegral(), 10.0, 1e-6);
    EXPECT_NEAR(link.utilization(10.0), 1.0, 1e-6);
}

/** Property: total delivered equals requested across random flow sets. */
class FlowConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(FlowConservation, BytesConserved)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &a = topo.addLink("a", 50.0);
    Link &b = topo.addLink("b", 70.0);
    Link &c = topo.addLink("c", 30.0);
    const int flows = GetParam();
    double requested = 0.0;
    int completed = 0;
    for (int i = 0; i < flows; ++i) {
        const double bytes = 10.0 + 13.0 * i;
        requested += bytes;
        Route route;
        if (i % 3 == 0)
            route = {&a, &b};
        else if (i % 3 == 1)
            route = {&b, &c};
        else
            route = {&a, &c};
        net.startFlow(std::move(route), bytes, cb.park([&]() { ++completed; }));
    }
    sim.run();
    EXPECT_EQ(completed, flows);
    EXPECT_NEAR(net.totalBytesDelivered(), requested, flows * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlowConservation,
                         ::testing::Values(1, 3, 8, 20, 50));

} // namespace
} // namespace smartinf::net
