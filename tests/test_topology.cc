/** @file Tests for the named link registry. */
#include <gtest/gtest.h>

#include <limits>

#include "net/topology.h"

namespace smartinf::net {
namespace {

TEST(Topology, AddAndLookup)
{
    Topology topo;
    Link &link = topo.addLink("host", 100.0);
    EXPECT_EQ(&topo.link("host"), &link);
    EXPECT_TRUE(topo.has("host"));
    EXPECT_FALSE(topo.has("missing"));
    EXPECT_EQ(topo.linkCount(), 1u);
}

TEST(Topology, DuplexCreatesTwoDirections)
{
    Topology topo;
    DuplexLink d = topo.addDuplex("pcie", 50.0);
    EXPECT_EQ(d.up, &topo.link("pcie.up"));
    EXPECT_EQ(d.down, &topo.link("pcie.down"));
    EXPECT_DOUBLE_EQ(d.up->capacity(), 50.0);
}

TEST(Topology, AsymmetricDuplex)
{
    Topology topo;
    DuplexLink d = topo.addDuplex("ssd", 32.0, 14.0);
    EXPECT_DOUBLE_EQ(d.up->capacity(), 32.0);
    EXPECT_DOUBLE_EQ(d.down->capacity(), 14.0);
}

TEST(Topology, UnknownLinkIsFatal)
{
    Topology topo;
    EXPECT_THROW(topo.link("nope"), std::runtime_error);
}

TEST(Topology, DuplicateNameIsFatal)
{
    Topology topo;
    topo.addLink("x", 1.0);
    EXPECT_THROW(topo.addLink("x", 2.0), std::runtime_error);
}

TEST(Topology, NonPositiveCapacityIsFatal)
{
    Topology topo;
    EXPECT_THROW(topo.addLink("bad", 0.0), std::runtime_error);
    // Nor infinite: a flow on the link would complete in zero time.
    EXPECT_THROW(topo.addLink("inf", std::numeric_limits<double>::infinity()),
                 std::runtime_error);
}

TEST(Topology, PointerStabilityAcrossGrowth)
{
    Topology topo;
    Link &first = topo.addLink("first", 1.0);
    for (int i = 0; i < 100; ++i)
        topo.addLink("l" + std::to_string(i), 1.0);
    EXPECT_EQ(&topo.link("first"), &first);
}

TEST(Topology, ForEachLinkVisitsAll)
{
    Topology topo;
    topo.addLink("a", 1.0);
    topo.addLink("b", 1.0);
    int count = 0;
    topo.forEachLink([&](const Link &) { ++count; });
    EXPECT_EQ(count, 2);
}

TEST(Topology, LinkIdsAreDenseInAddOrder)
{
    // FlowNetwork indexes its per-link state by Link::id(), so ids run
    // 0, 1, ... in add order, duplex pairs included (".up" first).
    Topology topo;
    Link &a = topo.addLink("a", 1.0);
    const DuplexLink d = topo.addDuplex("d", 2.0, 3.0);
    Link &b = topo.addLink("b", 1.0);
    EXPECT_EQ(a.id(), 0u);
    EXPECT_EQ(d.up->id(), 1u);
    EXPECT_EQ(d.down->id(), 2u);
    EXPECT_EQ(b.id(), 3u);
    uint32_t next = 0;
    topo.forEachLink([&](const Link &link) { EXPECT_EQ(link.id(), next++); });
    EXPECT_EQ(next, topo.linkCount());
}

} // namespace
} // namespace smartinf::net
