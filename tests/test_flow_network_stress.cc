/**
 * @file
 * Randomized stress/property tests pinning the incremental max-min scheduler
 * to the full-recompute oracle. Hundreds of overlapping flows arrive, share
 * links, and retire over a clustered topology; after EVERY discrete event
 * the incremental engine's per-flow rates and per-link aggregate rates must
 * match FlowNetwork::oracleRates() — a from-scratch water-filling with none
 * of the incremental bookkeeping — bit for bit, and the contention
 * components the network keeps across events must equal
 * FlowNetwork::oracleComponents(), a from-scratch flood fill.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "callbacks.h"
#include "common/random.h"
#include "net/flow_network.h"
#include "net/topology.h"

namespace smartinf::net {
namespace {

using test::Callbacks;

/** Run exactly one event. @return false when the queue had drained. */
bool
stepOne(sim::Simulator &sim)
{
    int budget = 1;
    sim.runUntil([&budget]() { return budget-- <= 0; });
    return budget < 0;
}

void
expectMatchesOracle(FlowNetwork &net,
                    const std::vector<Link *> &all_links = {})
{
    const auto snap = net.oracleRates();
    ASSERT_EQ(snap.rates.size(), net.activeFlows());
    for (const auto &[id, rate] : snap.rates) {
        // Bit-exact: the incremental scheduler must be indistinguishable
        // from a full recompute, not merely close.
        EXPECT_EQ(net.currentRate(id), rate) << "flow " << id;
    }
    for (const auto &[link, agg] : snap.link_rates)
        EXPECT_EQ(net.linkAggregateRate(link), agg) << "link " << link->name();
    // The partition decides which flows a recompute settles, so it must be
    // exactly the flood fill's: not a coarser one that never splits.
    EXPECT_EQ(net.components(), net.oracleComponents());
    // Links absent from the oracle carry no flow: their aggregate must
    // have been reset when their last flow retired, not left stale.
    for (const Link *link : all_links) {
        const bool carried =
            std::any_of(snap.link_rates.begin(), snap.link_rates.end(),
                        [&](const auto &lr) { return lr.first == link; });
        if (!carried) {
            EXPECT_EQ(net.linkAggregateRate(link), 0.0)
                << "idle link " << link->name();
        }
    }
}

/**
 * Clustered topology mirroring the engines' shape: per-cluster private
 * links plus shared trunks, so events hit a mix of single-flow fast paths,
 * cluster-local components, and trunk-coupled global recomputes.
 */
std::vector<Link *>
buildLinks(Topology &topo)
{
    std::vector<Link *> links;
    for (int c = 0; c < 3; ++c) {
        for (int i = 0; i < 3; ++i) {
            links.push_back(&topo.addLink(
                "c" + std::to_string(c) + ".l" + std::to_string(i),
                40.0 + 25.0 * i));
        }
    }
    links.push_back(&topo.addLink("trunk0", 120.0));
    links.push_back(&topo.addLink("trunk1", 90.0));
    return links;
}

/**
 * A random route over buildLinks()' topology: one to three of a cluster's
 * links, coupled to another cluster through a trunk 40% of the time.
 */
Route
randomRoute(Rng &rng, const std::vector<Link *> &links)
{
    Route route;
    const int cluster = static_cast<int>(rng.uniformInt(3));
    const int len = 1 + static_cast<int>(rng.uniformInt(3));
    for (int i = 0; i < len; ++i)
        route.push_back(links[cluster * 3 + ((i + rng.uniformInt(2)) % 3)]);
    if (rng.uniform() < 0.4) // Couple clusters through a trunk.
        route.push_back(links[9 + rng.uniformInt(2)]);
    // Dedup: routes are link sets in practice; multiplicity is exercised
    // separately below.
    Route unique;
    for (Link *l : route)
        if (std::find(unique.begin(), unique.end(), l) == unique.end())
            unique.push_back(l);
    return unique;
}

TEST(FlowNetworkStress, IncrementalMatchesOracleAfterEveryEvent)
{
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    const std::vector<Link *> links = buildLinks(topo);

    Rng rng(20260728);
    int completed = 0;
    int churn_budget = 220; // Flows started from completion callbacks.
    double requested = 0.0;

    std::function<void(int)> launch = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const double bytes = rng.uniform(50.0, 4000.0);
            const double latency =
                rng.uniform() < 0.25 ? rng.uniform(0.01, 2.0) : 0.0;
            requested += bytes;
            net.startFlow(randomRoute(rng, links), bytes,
                          cb.park([&]() {
                              ++completed;
                              if (churn_budget > 0) {
                                  --churn_budget;
                                  launch(1);
                              }
                          }),
                          latency);
        }
    };

    launch(60);
    expectMatchesOracle(net, links);

    int events = 0;
    while (stepOne(sim)) {
        ++events;
        expectMatchesOracle(net, links);
        ASSERT_LT(events, 200000) << "simulation failed to drain";
    }

    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(completed, 60 + 220);
    // Lazy settlement must still conserve bytes end to end.
    EXPECT_NEAR(net.totalBytesDelivered(), requested, completed * 2.0);
}

TEST(FlowNetworkStress, CompletionSequenceIsPinned)
{
    // Completion-heap bookkeeping must not move a completion by one bit or
    // one place: every callback, in run order, is hashed as (start index,
    // bit pattern of its time) and compared with the sequence of a heap
    // that pushed a fresh entry for every flow of every recompute.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    const std::vector<Link *> links = buildLinks(topo);

    Rng rng(20261018);
    uint64_t digest = 14695981039346656037ull; // FNV-1a, 64-bit
    auto mix = [&digest](uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            digest ^= (word >> (8 * byte)) & 0xffu;
            digest *= 1099511628211ull;
        }
    };
    int completed = 0;
    int churn_budget = 150;
    std::vector<FlowId> ids;

    std::function<void(int)> launch = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const uint64_t index = ids.size();
            const double bytes = rng.uniform(50.0, 4000.0);
            const double latency =
                rng.uniform() < 0.25 ? rng.uniform(0.01, 2.0) : 0.0;
            ids.push_back(net.startFlow(
                randomRoute(rng, links), bytes,
                cb.park([&, index]() {
                    ++completed;
                    mix(index);
                    mix(std::bit_cast<uint64_t>(sim.now()));
                    if (churn_budget > 0) {
                        --churn_budget;
                        launch(1);
                    }
                }),
                latency));
        }
    };
    launch(50);

    // Revoke a few flows mid-run, each the one started most recently, and
    // degrade one trunk once.
    int cancelled = 0;
    for (const double at : {3.0, 40.0, 120.0, 250.0}) {
        sim.at(at, cb.park([&]() {
            cancelled += net.cancelFlow(ids.back()) ? 1 : 0;
        }));
    }
    sim.at(17.0, cb.park([&net, trunk = links[9]]() {
        trunk->setCapacityFactor(0.4);
        net.linkCapacityChanged(trunk);
    }));

    sim.run();
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(cancelled, 4);
    EXPECT_EQ(completed, 50 + 150 - cancelled);
    EXPECT_EQ(digest, 4256841937246335102ull);
}

TEST(FlowNetworkStress, TiedSharesAndLateLowIdsMatchOracle)
{
    // Every link has the same capacity, so bottleneck shares tie and the
    // first-touch link order decides which link freezes first. Start
    // latencies are mixed, and shrink with the id within each burst, so a
    // link's lowest-id flow often arrives after its higher ids. Routes
    // list their links in random order (sometimes one twice), so a link's
    // first route position varies between flows. Equal sizes make
    // completions coincide too.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    std::vector<Link *> links;
    for (int i = 0; i < 8; ++i)
        links.push_back(&topo.addLink("l" + std::to_string(i), 64.0));

    Rng rng(20261017);
    int completed = 0;
    int started = 0;
    int churn_budget = 300;

    auto random_route = [&]() {
        Route route;
        const int len = 1 + static_cast<int>(rng.uniformInt(4));
        while (static_cast<int>(route.size()) < len) {
            Link *l = links[rng.uniformInt(links.size())];
            if (std::find(route.begin(), route.end(), l) == route.end())
                route.push_back(l);
        }
        if (rng.uniform() < 0.1) // Claim two shares on one link.
            route.push_back(route[rng.uniformInt(route.size())]);
        return route;
    };

    std::function<void(int)> burst = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const double bytes = 64.0 * (1 + rng.uniformInt(4));
            // Later ids in a burst tend to start first; a quarter start at
            // once, on top of whatever else starts at this instant.
            const double stagger = 0.125 * (n - i + rng.uniformInt(3));
            const double latency = rng.uniform() < 0.25 ? 0.0 : stagger;
            ++started;
            net.startFlow(random_route(), bytes,
                          cb.park([&]() {
                              ++completed;
                              if (churn_budget > 0) {
                                  const int more = std::min(
                                      churn_budget,
                                      1 + static_cast<int>(rng.uniformInt(3)));
                                  churn_budget -= more;
                                  burst(more);
                              }
                          }),
                          latency);
        }
    };

    burst(40);
    expectMatchesOracle(net, links);
    int events = 0;
    while (stepOne(sim)) {
        ++events;
        expectMatchesOracle(net, links);
        ASSERT_LT(events, 200000) << "simulation failed to drain";
    }
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(completed, started);
    EXPECT_EQ(started, 40 + 300);
}

TEST(FlowNetworkStress, DuplicateLinkRouteMatchesOracle)
{
    // A route listing the same link twice claims two shares on it; the
    // incremental index must agree with the oracle about that accounting.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &shared = topo.addLink("shared", 90.0);
    Link &side = topo.addLink("side", 200.0);

    int completed = 0;
    const std::vector<Link *> all = {&shared, &side};
    net.startFlow({&shared, &side, &shared}, 600.0,
                  cb.park([&]() { ++completed; }));
    net.startFlow({&shared}, 600.0, cb.park([&]() { ++completed; }));
    expectMatchesOracle(net, all);
    // The oracle is the specification; pin equality after every event.
    while (stepOne(sim))
        expectMatchesOracle(net, all);
    EXPECT_EQ(completed, 2);
}

TEST(FlowNetworkStress, IdleLinkAccruesNoPhantomBytes)
{
    // Regression: a link whose last flow retired must drop its aggregate
    // rate to zero; otherwise the idle gap is accounted at the dead flow's
    // rate when the next flow arrives.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);

    net.startFlow({&link}, 100.0, {}); // Done at t=1.
    sim.run();
    EXPECT_EQ(net.linkAggregateRate(&link), 0.0);

    bool second_started = false;
    sim.after(4.0, cb.park([&]() { // Link sat idle over t=[1,5].
        second_started = true;
        net.startFlow({&link}, 100.0, {});
    }));
    sim.run();
    EXPECT_TRUE(second_started);
    EXPECT_NEAR(net.totalBytesDelivered(), 200.0, 2.0);
    EXPECT_NEAR(link.bytesCarried(), 200.0, 2.0); // Not 600.
    EXPECT_NEAR(link.busyIntegral(), 2.0, 1e-9);  // Two busy seconds.
}

TEST(FlowNetworkStress, RepeatedStartStopKeepsIndexesBounded)
{
    // Long churn of short-lived flows: the slot store and heap must recycle
    // rather than grow with the total flow count.
    Callbacks cb;
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &a = topo.addLink("a", 100.0);
    Link &b = topo.addLink("b", 100.0);

    int chains_done = 0;
    bool coupler_done = false;
    std::function<void()> chain = [&]() {
        ++chains_done;
        if (chains_done < 3000)
            net.startFlow({&a, &b}, 100.0, cb.park(chain));
    };
    net.startFlow({&a, &b}, 100.0, cb.park(chain));
    net.startFlow({&b}, 150000.0,
                  cb.park([&]() { coupler_done = true; })); // Long coupler.
    sim.run();
    EXPECT_EQ(chains_done, 3000);
    EXPECT_TRUE(coupler_done);
    expectMatchesOracle(net); // Drained: both empty.
    EXPECT_EQ(net.activeFlows(), 0u);
    // 3001 flows passed through, but never more than two concurrently:
    // storage must reflect the peak, not the total.
    EXPECT_LE(net.slotsAllocated(), 8u);
    EXPECT_LE(net.completionHeapSize(), 128u);
}

} // namespace
} // namespace smartinf::net
