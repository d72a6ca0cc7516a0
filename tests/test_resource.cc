/** @file Tests for the serial FIFO compute resource. */
#include <gtest/gtest.h>

#include <vector>

#include "callbacks.h"
#include "sim/resource.h"

namespace smartinf::sim {
namespace {

using test::Callbacks;

TEST(Resource, SingleJobDuration)
{
    Callbacks cb;
    Simulator sim;
    Resource r(sim, "gpu", 10.0); // 10 units/s.
    double done_at = -1.0;
    r.submit(50.0, cb.park([&]() { done_at = sim.now(); }));
    sim.run();
    EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(Resource, JobsRunSerially)
{
    Callbacks cb;
    Simulator sim;
    Resource r(sim, "cpu", 1.0);
    std::vector<double> completion;
    r.submit(1.0, cb.park([&]() { completion.push_back(sim.now()); }));
    r.submit(2.0, cb.park([&]() { completion.push_back(sim.now()); }));
    r.submit(3.0, cb.park([&]() { completion.push_back(sim.now()); }));
    sim.run();
    ASSERT_EQ(completion.size(), 3u);
    EXPECT_DOUBLE_EQ(completion[0], 1.0);
    EXPECT_DOUBLE_EQ(completion[1], 3.0);
    EXPECT_DOUBLE_EQ(completion[2], 6.0);
}

TEST(Resource, JobLatencyAddsFixedOverhead)
{
    Callbacks cb;
    Simulator sim;
    Resource r(sim, "fpga", 100.0, 0.5);
    double done_at = -1.0;
    r.submit(100.0, cb.park([&]() { done_at = sim.now(); }));
    sim.run();
    EXPECT_DOUBLE_EQ(done_at, 1.5);
}

TEST(Resource, SubmitFromCompletionCallback)
{
    Callbacks cb;
    Simulator sim;
    Resource r(sim, "x", 1.0);
    double second_done = -1.0;
    r.submit(1.0, cb.park([&]() {
        r.submit(2.0, cb.park([&]() { second_done = sim.now(); }));
    }));
    sim.run();
    EXPECT_DOUBLE_EQ(second_done, 3.0);
}

TEST(Resource, IdleReflectsState)
{
    Simulator sim;
    Resource r(sim, "y", 1.0);
    EXPECT_TRUE(r.idle());
    r.submit(1.0, {});
    EXPECT_FALSE(r.idle());
    sim.run();
    EXPECT_TRUE(r.idle());
}

TEST(Resource, ZeroWorkCompletesAfterLatencyOnly)
{
    Callbacks cb;
    Simulator sim;
    Resource r(sim, "w", 1.0, 0.25);
    double done_at = -1.0;
    r.submit(0.0, cb.park([&]() { done_at = sim.now(); }));
    sim.run();
    EXPECT_DOUBLE_EQ(done_at, 0.25);
}

TEST(Resource, InvalidRateIsFatal)
{
    Simulator sim;
    EXPECT_THROW(Resource(sim, "bad", 0.0), std::runtime_error);
    EXPECT_THROW(Resource(sim, "bad", -1.0), std::runtime_error);
}

} // namespace
} // namespace smartinf::sim
