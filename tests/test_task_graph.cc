/** @file Tests for the dependency task graph. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/task_graph.h"

namespace smartinf::sim {
namespace {

TEST(TaskGraph, LinearChainOnResource)
{
    Simulator sim;
    Resource r(sim, "r", 1.0);
    TaskGraph g(sim);
    auto a = g.compute(r, 1.0, "a");
    auto b = g.compute(r, 2.0, "b");
    g.dependsOn(b, a);
    g.start();
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(g.finishTime(a), 1.0);
    EXPECT_DOUBLE_EQ(g.finishTime(b), 3.0);
    EXPECT_DOUBLE_EQ(g.makespan(), 3.0);
}

TEST(TaskGraph, IndependentTasksOverlapAcrossResources)
{
    Simulator sim;
    Resource r1(sim, "r1", 1.0), r2(sim, "r2", 1.0);
    TaskGraph g(sim);
    auto a = g.compute(r1, 5.0, "a");
    auto b = g.compute(r2, 5.0, "b");
    (void)a;
    (void)b;
    g.start();
    sim.run();
    EXPECT_DOUBLE_EQ(g.makespan(), 5.0);
}

TEST(TaskGraph, DiamondDependency)
{
    Simulator sim;
    Resource r1(sim, "r1", 1.0), r2(sim, "r2", 1.0);
    TaskGraph g(sim);
    auto src = g.delay(1.0, "src");
    auto left = g.compute(r1, 2.0, "left");
    auto right = g.compute(r2, 3.0, "right");
    auto sink = g.barrier("sink");
    g.dependsOn(left, src);
    g.dependsOn(right, src);
    g.dependsOn(sink, {left, right});
    g.start();
    sim.run();
    EXPECT_DOUBLE_EQ(g.finishTime(sink), 4.0); // 1 + max(2,3).
}

TEST(TaskGraph, BarrierCompletesImmediatelyWithoutDeps)
{
    Simulator sim;
    TaskGraph g(sim);
    auto b = g.barrier("b");
    g.start();
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(g.finishTime(b), 0.0);
}

TEST(TaskGraph, StartTimeReflectsDependencyRelease)
{
    Simulator sim;
    TaskGraph g(sim);
    auto a = g.delay(2.0, "a");
    auto b = g.delay(1.0, "b");
    g.dependsOn(b, a);
    g.start();
    sim.run();
    EXPECT_DOUBLE_EQ(g.startTime(b), 2.0);
    EXPECT_DOUBLE_EQ(g.finishTime(b), 3.0);
}

TEST(TaskGraph, MultiDependencyWaitsForAll)
{
    Simulator sim;
    TaskGraph g(sim);
    auto a = g.delay(1.0);
    auto b = g.delay(4.0);
    auto c = g.delay(0.5);
    g.dependsOn(c, {a, b});
    g.start();
    sim.run();
    EXPECT_DOUBLE_EQ(g.finishTime(c), 4.5);
}

TEST(TaskGraph, CustomAsyncAction)
{
    Simulator sim;
    TaskGraph g(sim);
    auto a = g.add(
        [&sim](std::function<void()> done) { sim.after(7.0, std::move(done)); },
        "custom");
    g.start();
    sim.run();
    EXPECT_DOUBLE_EQ(g.finishTime(a), 7.0);
}

TEST(TaskGraph, SelfDependencyIsRejected)
{
    Simulator sim;
    TaskGraph g(sim);
    auto a = g.barrier();
    EXPECT_THROW(g.dependsOn(a, a), std::logic_error);
}

TEST(TaskGraph, DoubleStartIsFatal)
{
    Simulator sim;
    TaskGraph g(sim);
    g.barrier();
    g.start();
    EXPECT_THROW(g.start(), std::runtime_error);
}

// ---- dynamic mode (tasks added while the simulator runs) --------------------

TEST(TaskGraph, DynamicTaskAddedAfterStartLaunchesOnRelease)
{
    Simulator sim;
    TaskGraph g(sim);
    auto head = g.delay(1.0, "head");
    g.start();
    // Grow the graph from inside the running simulation.
    double dynamic_finish = -1.0;
    sim.at(0.5, [&] {
        auto tail = g.delay(2.0, "tail");
        g.dependsOn(tail, head); // head not yet complete: real dependency
        g.release(tail);
        sim.at(3.5, [&, tail] { dynamic_finish = g.finishTime(tail); });
    });
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(dynamic_finish, 3.0); // 1.0 (head) + 2.0
    EXPECT_DOUBLE_EQ(g.makespan(), 3.0);
}

TEST(TaskGraph, DynamicDependencyOnCompletedTaskIsSatisfied)
{
    Simulator sim;
    TaskGraph g(sim);
    auto head = g.delay(1.0, "head");
    g.start();
    sim.at(5.0, [&] {
        auto tail = g.delay(1.0, "tail");
        g.dependsOn(tail, head); // completed at t=1: no-op, already satisfied
        g.release(tail);
    });
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(g.startTime(head), 0.0); // head launched at start
    EXPECT_DOUBLE_EQ(g.makespan(), 6.0);      // released at 5, runs 1s
}

TEST(TaskGraph, ReleaseRangeArmsOneDynamicSubgraph)
{
    Simulator sim;
    Resource r(sim, "r", 1.0);
    TaskGraph g(sim);
    auto head = g.delay(1.0, "head");
    g.start();
    sim.at(1.0, [&] {
        const TaskGraph::TaskId first = g.taskCount();
        auto a = g.compute(r, 1.0, "a");
        auto b = g.compute(r, 1.0, "b");
        auto join = g.barrier("join");
        g.dependsOn(b, a);
        g.dependsOn(join, {a, b});
        g.releaseRange(first, g.taskCount());
        (void)head;
        sim.at(4.0, [&, join] { EXPECT_DOUBLE_EQ(g.finishTime(join), 3.0); });
    });
    sim.run();
    EXPECT_TRUE(g.done());
}

TEST(TaskGraph, DynamicGrowthFromCompletionCallbackSurvivesReallocation)
{
    // A chain grown one link at a time from inside task actions: each
    // action appends the next task while complete() is iterating its
    // dependents, exercising the growth-safety of the task storage.
    Simulator sim;
    TaskGraph g(sim);
    int hops = 0;
    std::function<void(std::function<void()>)> grow =
        [&](std::function<void()> done) {
            ++hops;
            if (hops < 200) {
                auto next = g.add(grow, {"hop"});
                g.release(next);
            }
            done();
        };
    auto seed = g.add(grow, {"hop"});
    (void)seed;
    g.start();
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_EQ(hops, 200);
    EXPECT_EQ(g.taskCount(), 200u);
}

TEST(TaskGraph, StorageNeverMovesATaskAcrossGrowthAndTrim)
{
    // A one-second chain far longer than a storage block: the first part
    // is added before start(), the rest one task at a time from inside
    // completion callbacks, wired to the still-running predecessor. With
    // and without trimming, every task keeps its id, its times and its
    // address while it is stored; adding tasks never relocates one.
    constexpr int kStatic = 2500;
    constexpr int kTotal = 5000;
    for (const bool trim : {false, true}) {
        SCOPED_TRACE(trim ? "trim" : "no trim");
        Simulator sim;
        TaskGraph g(sim);
        if (trim)
            g.enableTrim();
        std::vector<const TaskLabel *> stored;
        int moved = 0;
        std::function<void(std::function<void()>)> step;
        auto add = [&](int i) {
            const TaskGraph::TaskId id = g.add(step, {"chain", i});
            EXPECT_EQ(id, static_cast<TaskGraph::TaskId>(i));
            stored.push_back(&g.label(id));
            if (i > 0)
                g.dependsOn(id, id - 1);
            return id;
        };
        step = [&](std::function<void()> done) {
            const auto id = g.launchingTask();
            sim.after(1.0, [&, id, done] {
                const int i = static_cast<int>(id);
                if (&g.label(id) != stored[id] || g.label(id).a != i)
                    ++moved;
                EXPECT_DOUBLE_EQ(g.startTime(id), i);
                if (!trim && i > 0) {
                    EXPECT_DOUBLE_EQ(g.finishTime(id - 1), i);
                }
                if (static_cast<int>(g.taskCount()) < kTotal)
                    g.release(add(static_cast<int>(g.taskCount())));
                done();
            });
        };
        for (int i = 0; i < kStatic; ++i)
            add(i);
        g.start();
        sim.run();

        EXPECT_EQ(moved, 0);
        EXPECT_TRUE(g.done());
        EXPECT_EQ(g.taskCount(), static_cast<std::size_t>(kTotal));
        EXPECT_DOUBLE_EQ(g.makespan(), kTotal);
        if (trim) {
            EXPECT_THROW(g.finishTime(0), std::logic_error);
            continue;
        }
        for (int i = 0; i < kTotal; ++i) {
            const auto id = static_cast<TaskGraph::TaskId>(i);
            ASSERT_EQ(&g.label(id), stored[id]) << "task " << i;
            EXPECT_DOUBLE_EQ(g.startTime(id), i);
            EXPECT_DOUBLE_EQ(g.finishTime(id), i + 1);
        }
    }
}

TEST(TaskGraph, TrimmingKeepsGlobalIdsDependenciesAndDomains)
{
    // Serving streams tasks through a trimming graph: one short task per
    // simulated second, so completed prefixes are reclaimed in
    // 1024-task chunks while ids, makespan, dependencies on trimmed ids,
    // and revocation of later domains keep working.
    constexpr int kStream = 3000;  // > 2 x the 1024-task trim chunk
    constexpr int kLongTask = 1500; // finishes last, after everything
    Simulator sim;
    TaskGraph g(sim);
    g.enableTrim();
    g.start();

    Seconds latest = 0.0;
    for (int i = 0; i < kStream; ++i) {
        const Seconds duration = i == kLongTask ? 5000.0 : 0.5;
        sim.at(i, [&, duration] {
            const auto id = g.add([&, duration](std::function<void()> done) {
                sim.after(duration, [&, done] {
                    latest = std::max(latest, sim.now());
                    done();
                });
            });
            g.release(id);
        });
    }

    Seconds late_launch = -1.0;
    TaskGraph::TaskId late = TaskGraph::kInvalidTask;
    TaskGraph::Domain domain = TaskGraph::kNoDomain;
    TaskGraph::TaskId head = 0, tail = 0, bystander = 0;
    sim.at(2000.25, [&] {
        // Ids [0, 1024) were reclaimed at the first chunk boundary.
        EXPECT_THROW(g.finishTime(0), std::logic_error);
        late = g.add([&](std::function<void()> done) {
            late_launch = sim.now();
            done();
        });
        g.dependsOn(late, 0); // trimmed: already satisfied
        g.release(late);

        domain = g.openDomain();
        g.setCurrentDomain(domain);
        head = g.delay(100.0);
        tail = g.delay(1.0);
        g.dependsOn(tail, head);
        g.setCurrentDomain(TaskGraph::kNoDomain);
        bystander = g.delay(100.0);
        g.releaseRange(head, g.taskCount());
    });
    sim.at(2050.25, [&] {
        EXPECT_EQ(g.revokeDomain(domain), 2u);
        EXPECT_TRUE(g.abandoned(head));
        EXPECT_TRUE(g.abandoned(tail));
        EXPECT_FALSE(g.abandoned(bystander));
    });
    sim.run();

    EXPECT_DOUBLE_EQ(late_launch, 2000.25);
    EXPECT_TRUE(g.done());
    EXPECT_EQ(g.taskCount(), static_cast<std::size_t>(kStream) + 4);
    EXPECT_DOUBLE_EQ(latest, kLongTask + 5000.0);
    EXPECT_DOUBLE_EQ(g.makespan(), latest);
}

TEST(TaskGraph, ReleaseBeforeStartIsFatal)
{
    Simulator sim;
    TaskGraph g(sim);
    auto a = g.barrier();
    EXPECT_THROW(g.release(a), std::runtime_error);
}

TEST(TaskGraph, NegativeDelayIsFatal)
{
    Simulator sim;
    TaskGraph g(sim);
    EXPECT_THROW(g.delay(-1.0), std::runtime_error);
}

} // namespace
} // namespace smartinf::sim
