/** @file Tests for the discrete-event queue and simulator clock. */
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "callbacks.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace smartinf::sim {
namespace {

using test::Callbacks;

TEST(EventQueue, RunsInTimeOrder)
{
    Callbacks cb;
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, cb.park([&]() { order.push_back(3); }));
    q.schedule(1.0, cb.park([&]() { order.push_back(1); }));
    q.schedule(2.0, cb.park([&]() { order.push_back(2); }));
    Seconds now = 0.0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(now, 3.0);
}

TEST(EventQueue, SimultaneousEventsAreFifo)
{
    Callbacks cb;
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, cb.park([&order, i]() { order.push_back(i); }));
    Seconds now = 0.0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsScheduledDuringRun)
{
    Callbacks cb;
    EventQueue q;
    std::vector<double> times;
    Seconds now = 0.0;
    q.schedule(1.0, cb.park([&]() {
        times.push_back(now);
        q.schedule(2.0, cb.park([&]() { times.push_back(2.0); }));
    }));
    while (q.runNext(now)) {
    }
    EXPECT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(now, 2.0);
}

TEST(EventQueue, AlarmTiesBreakOnArmOrder)
{
    // The alarm draws its sequence number when armed, like schedule(): an
    // event scheduled at the same time before arm() runs first, one
    // scheduled after it runs after.
    Callbacks cb;
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, cb.park([&]() { order.push_back(0); }));
    q.arm(1.0, cb.park([&]() { order.push_back(1); }));
    q.schedule(1.0, cb.park([&]() { order.push_back(2); }));
    q.schedule(0.5, cb.park([&]() { order.push_back(-1); }));
    Seconds now = 0.0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
    EXPECT_DOUBLE_EQ(now, 1.0);
}

TEST(EventQueue, RearmingMovesTheAlarmBehindEventsScheduledInBetween)
{
    Callbacks cb;
    EventQueue q;
    std::vector<int> order;
    q.arm(1.0, cb.park([&]() { order.push_back(0); }));
    q.schedule(1.0, cb.park([&]() { order.push_back(1); }));
    // Replaces the first arm.
    q.arm(1.0, cb.park([&]() { order.push_back(2); }));
    q.schedule(1.0, cb.park([&]() { order.push_back(3); }));
    EXPECT_EQ(q.size(), 3u);
    Seconds now = 0.0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DisarmEmptiesTheQueueAndSizeCountsTheAlarm)
{
    Callbacks cb;
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.arm(2.0, cb.park([]() {}));
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.heapSize(), 0u);
    EXPECT_TRUE(q.armedAt(2.0));
    EXPECT_FALSE(q.armedAt(1.0));
    q.schedule(1.0, cb.park([]() {}));
    EXPECT_EQ(q.size(), 2u);
    q.disarm();
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.armedAt(2.0));
    Seconds now = 0.0;
    ASSERT_TRUE(q.runNext(now));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runNext(now));
    EXPECT_DOUBLE_EQ(now, 1.0);
}

TEST(EventQueue, RearmChurnKeepsStorageFlat)
{
    // The flow network's pattern: the alarm is re-armed on every rate
    // change. Re-arming never touches the heap, and only the last arm
    // fires.
    struct Fired final : Receiver {
        int count = 0;
        uint64_t last = 0;
        void
        onNotify(uint64_t arg) override
        {
            ++count;
            last = arg;
        }
    };
    Callbacks cb;
    EventQueue q;
    q.schedule(0.5, cb.park([]() {}));
    Seconds now = 0.0;
    ASSERT_TRUE(q.runNext(now));
    Fired fired;
    for (int i = 1; i <= 50000; ++i) {
        q.arm(static_cast<Seconds>(i),
              Notify{&fired, static_cast<uint64_t>(i)});
        EXPECT_EQ(q.size(), 1u);
    }
    EXPECT_EQ(q.heapSize(), 0u);
    while (q.runNext(now)) {
    }
    EXPECT_EQ(fired.count, 1);
    EXPECT_EQ(fired.last, 50000u);
    EXPECT_DOUBLE_EQ(now, 50000.0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, AlarmRearmsItselfFromItsOwnCallback)
{
    Callbacks cb;
    EventQueue q;
    std::vector<double> fired_at;
    Seconds now = 0.0;
    std::function<void()> tick = [&]() {
        fired_at.push_back(now);
        if (fired_at.size() < 3)
            q.arm(now + 1.0, cb.park(tick));
    };
    q.arm(1.0, cb.park(tick));
    while (q.runNext(now)) {
    }
    EXPECT_EQ(fired_at, (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SecondAlarmOwnerIsRejected)
{
    EventQueue q;
    q.claimAlarm();
    EXPECT_THROW(q.claimAlarm(), std::runtime_error);
}

TEST(Simulator, AfterSchedulesRelative)
{
    Callbacks cb;
    Simulator sim;
    double fired_at = -1.0;
    sim.after(2.5, cb.park([&]() { fired_at = sim.now(); }));
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 2.5);
    EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulator, NestedAfterAccumulates)
{
    Callbacks cb;
    Simulator sim;
    double final_time = 0.0;
    sim.after(1.0, cb.park([&]() {
        sim.after(1.5, cb.park([&]() { final_time = sim.now(); }));
    }));
    sim.run();
    EXPECT_DOUBLE_EQ(final_time, 2.5);
}

TEST(Simulator, RunUntilPredicate)
{
    Callbacks cb;
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        sim.after(i, cb.park([&]() { ++count; }));
    sim.runUntil([&]() { return count >= 3; });
    EXPECT_EQ(count, 3);
    EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, CountsExecutedEvents)
{
    Callbacks cb;
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.after(1.0, cb.park([]() {}));
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 7u);
}

} // namespace
} // namespace smartinf::sim
