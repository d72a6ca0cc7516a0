/** @file Tests for the dependency task graph. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "callbacks.h"
#include "sim/task_graph.h"
#include "task_times.h"

namespace smartinf::sim {
namespace {

using test::Callbacks;
using test::TaskTimes;

TEST(TaskGraph, LinearChainOnResource)
{
    Simulator sim;
    TaskTimes times(sim);
    Resource r(sim, "r", 1.0);
    TaskGraph g(sim);
    auto a = g.compute(r, 1.0, "a");
    auto b = g.compute(r, 2.0, "b");
    g.dependsOn(b, a);
    g.start();
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(times.finish(a), 1.0);
    EXPECT_DOUBLE_EQ(times.finish(b), 3.0);
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
    TaskTimes times(sim);
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
    EXPECT_DOUBLE_EQ(times.finish(sink), 4.0); // 1 + max(2,3).
}

TEST(TaskGraph, BarrierCompletesImmediatelyWithoutDeps)
{
    Simulator sim;
    TaskTimes times(sim);
    TaskGraph g(sim);
    auto b = g.barrier("b");
    g.start();
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(times.finish(b), 0.0);
}

TEST(TaskGraph, StartTimeReflectsDependencyRelease)
{
    Simulator sim;
    TaskTimes times(sim);
    TaskGraph g(sim);
    auto a = g.delay(2.0, "a");
    auto b = g.delay(1.0, "b");
    g.dependsOn(b, a);
    g.start();
    sim.run();
    EXPECT_DOUBLE_EQ(times.start(b), 2.0);
    EXPECT_DOUBLE_EQ(times.finish(b), 3.0);
}

TEST(TaskGraph, MultiDependencyWaitsForAll)
{
    Simulator sim;
    TaskTimes times(sim);
    TaskGraph g(sim);
    auto a = g.delay(1.0);
    auto b = g.delay(4.0);
    auto c = g.delay(0.5);
    g.dependsOn(c, {a, b});
    g.start();
    sim.run();
    EXPECT_DOUBLE_EQ(times.finish(c), 4.5);
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
    Callbacks cb;
    Simulator sim;
    TaskTimes times(sim);
    TaskGraph g(sim);
    auto head = g.delay(1.0, "head");
    g.start();
    // Grow the graph from inside the running simulation.
    double dynamic_finish = -1.0;
    sim.at(0.5, cb.park([&] {
        auto tail = g.delay(2.0, "tail");
        g.dependsOn(tail, head); // head not yet complete: real dependency
        g.release(tail);
        sim.at(3.5,
               cb.park([&, tail] { dynamic_finish = times.finish(tail); }));
    }));
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(dynamic_finish, 3.0); // 1.0 (head) + 2.0
    EXPECT_DOUBLE_EQ(g.makespan(), 3.0);
}

TEST(TaskGraph, DynamicDependencyOnCompletedTaskIsSatisfied)
{
    Callbacks cb;
    Simulator sim;
    TaskTimes times(sim);
    TaskGraph g(sim);
    auto head = g.delay(1.0, "head");
    g.start();
    sim.at(5.0, cb.park([&] {
        auto tail = g.delay(1.0, "tail");
        g.dependsOn(tail, head); // completed at t=1: no-op, already satisfied
        g.release(tail);
    }));
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_DOUBLE_EQ(times.start(head), 0.0); // head launched at start
    EXPECT_DOUBLE_EQ(g.makespan(), 6.0);      // released at 5, runs 1s
}

TEST(TaskGraph, ReleaseRangeArmsOneDynamicSubgraph)
{
    Callbacks cb;
    Simulator sim;
    TaskTimes times(sim);
    Resource r(sim, "r", 1.0);
    TaskGraph g(sim);
    auto head = g.delay(1.0, "head");
    g.start();
    sim.at(1.0, cb.park([&] {
        const TaskGraph::TaskId first = g.taskCount();
        auto a = g.compute(r, 1.0, "a");
        auto b = g.compute(r, 1.0, "b");
        auto join = g.barrier("join");
        g.dependsOn(b, a);
        g.dependsOn(join, {a, b});
        g.releaseRange(first, g.taskCount());
        (void)head;
        sim.at(4.0, cb.park([&, join] {
            EXPECT_DOUBLE_EQ(times.finish(join), 3.0);
        }));
    }));
    sim.run();
    EXPECT_TRUE(g.done());
}

TEST(TaskGraph, DynamicGrowthFromCompletionCallbackSurvivesReallocation)
{
    // A chain grown one link at a time from inside notify tasks: each
    // receiver appends the next task while complete() is iterating its
    // dependents, exercising the growth-safety of the task storage.
    Callbacks cb;
    Simulator sim;
    TaskGraph g(sim);
    int hops = 0;
    std::function<void()> grow = [&]() {
        ++hops;
        if (hops < 200) {
            auto next = g.notify(cb.park(grow), {"hop"});
            g.release(next);
        }
    };
    auto seed = g.notify(cb.park(grow), {"hop"});
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
    // timer events, wired to the still-running predecessor. While the
    // graph trims its completed prefix, every task keeps its id and its
    // address while it is stored; adding tasks never relocates one.
    Callbacks cb;
    constexpr int kStatic = 2500;
    constexpr int kTotal = 5000;
    Simulator sim;
    TaskTimes times(sim);
    TaskGraph g(sim);
    std::vector<const TaskLabel *> stored;
    int moved = 0;
    auto add = [&](int i) {
        // A task's id is the task count when it is added.
        const TaskGraph::TaskId id = g.delay(1.0, {"chain", i});
        EXPECT_EQ(id, static_cast<TaskGraph::TaskId>(i));
        stored.push_back(&g.label(id));
        if (i > 0)
            g.dependsOn(id, id - 1);
        return id;
    };
    // Halfway through each link, while it runs: check it, then grow the
    // chain by one link wired to the still-running tail.
    TaskGraph::TaskId id = 0;
    std::function<void()> step = [&] {
        const int i = static_cast<int>(id);
        if (&g.label(id) != stored[id] || g.label(id).a != i)
            ++moved;
        EXPECT_DOUBLE_EQ(times.start(id), i);
        if (i > 0) {
            EXPECT_DOUBLE_EQ(times.finish(id - 1), i);
        }
        if (static_cast<int>(g.taskCount()) < kTotal)
            g.release(add(static_cast<int>(g.taskCount())));
        if (++id < static_cast<TaskGraph::TaskId>(kTotal))
            sim.after(1.0, cb.park(step));
    };
    for (int i = 0; i < kStatic; ++i)
        add(i);
    g.start();
    sim.at(0.5, cb.park(step));
    sim.run();

    EXPECT_EQ(moved, 0);
    EXPECT_TRUE(g.done());
    EXPECT_EQ(g.taskCount(), static_cast<std::size_t>(kTotal));
    EXPECT_DOUBLE_EQ(g.makespan(), kTotal);
    EXPECT_THROW(g.label(0), std::logic_error);
    for (int i = 0; i < kTotal; ++i) {
        EXPECT_DOUBLE_EQ(times.start(i), i);
        EXPECT_DOUBLE_EQ(times.finish(i), i + 1);
    }
}

TEST(TaskGraph, TrimmingKeepsGlobalIdsDependenciesAndDomains)
{
    // Serving streams tasks through a trimming graph: one short task per
    // simulated second, so completed prefixes are reclaimed in
    // 1024-task chunks while ids, makespan, dependencies on trimmed ids,
    // and revocation of later domains keep working.
    Callbacks cb;
    constexpr int kStream = 3000;  // > 2 x the 1024-task trim chunk
    constexpr int kLongTask = 1500; // finishes last, after everything
    Simulator sim;
    TaskGraph g(sim);
    g.start();

    Seconds latest = 0.0;
    for (int i = 0; i < kStream; ++i) {
        const Seconds duration = i == kLongTask ? 5000.0 : 0.5;
        sim.at(i, cb.park([&, i, duration] {
            latest = std::max(latest, i + duration);
            g.release(g.delay(duration));
        }));
    }

    Seconds late_launch = -1.0;
    TaskGraph::TaskId late = TaskGraph::kInvalidTask;
    TaskGraph::Domain domain = TaskGraph::kNoDomain;
    TaskGraph::TaskId head = 0, tail = 0, bystander = 0;
    sim.at(2000.25, cb.park([&] {
        // Ids [0, 1024) were reclaimed at the first chunk boundary.
        EXPECT_THROW(g.label(0), std::logic_error);
        late = g.notify(cb.park([&] { late_launch = sim.now(); }));
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
    }));
    sim.at(2050.25, cb.park([&] {
        EXPECT_EQ(g.revokeDomain(domain), 2u);
        EXPECT_TRUE(g.abandoned(head));
        EXPECT_TRUE(g.abandoned(tail));
        EXPECT_FALSE(g.abandoned(bystander));
    }));
    sim.run();

    EXPECT_DOUBLE_EQ(late_launch, 2000.25);
    EXPECT_TRUE(g.done());
    EXPECT_EQ(g.taskCount(), static_cast<std::size_t>(kStream) + 4);
    EXPECT_DOUBLE_EQ(latest, kLongTask + 5000.0);
    EXPECT_DOUBLE_EQ(g.makespan(), latest);
}

TEST(TaskGraph, FanOutLaunchesDependentsInDependsOnOrder)
{
    // A task keeps up to two dependents inline and moves a wider fan-out
    // to a pooled list; either way its dependents launch in the order
    // dependsOn() named them. Fan-outs of 1, 2, 3 and 7 cross the
    // boundary, in a static graph, in a trimming graph past its first
    // reclaimed block, and in a revoked domain (where no dependent may be
    // left dangling).
    Callbacks cb;
    constexpr int kFanOuts[] = {1, 2, 3, 7};
    // Dependents named out of id order, so launch order shows which
    // order was kept.
    const auto order = [](int n) {
        std::vector<int> o;
        for (int i = n - 1; i >= 0; i -= 2)
            o.push_back(i);
        for (int i = n % 2 == 0 ? 0 : 1; i < n; i += 2)
            o.push_back(i);
        return o;
    };
    for (const int n : kFanOuts) {
        SCOPED_TRACE(n);
        Simulator sim;
        TaskGraph g(sim);
        std::vector<TaskGraph::TaskId> launched;
        // Each dependent records its own id (the task count when added).
        const auto record = [&] {
            return cb.park([&launched, id = g.taskCount()] {
                launched.push_back(id);
            });
        };
        const auto root = g.delay(1.0);
        std::vector<TaskGraph::TaskId> deps;
        for (int i = 0; i < n; ++i)
            deps.push_back(g.notify(record()));
        std::vector<TaskGraph::TaskId> expected;
        for (const int i : order(n)) {
            g.dependsOn(deps[i], root);
            expected.push_back(deps[i]);
        }
        g.start();
        sim.run();
        EXPECT_TRUE(g.done());
        EXPECT_EQ(launched, expected);
    }

    for (const int n : kFanOuts) {
        SCOPED_TRACE(n);
        Simulator sim;
        TaskGraph g(sim);
        g.start();
        // Push the graph past a trimmed block first, so the fan-out lives
        // in reused storage.
        for (int i = 0; i < 3000; ++i)
            g.release(g.barrier());
        EXPECT_THROW(g.label(0), std::logic_error);
        std::vector<TaskGraph::TaskId> launched;
        // Each dependent records its own id (the task count when added).
        const auto record = [&] {
            return cb.park([&launched, id = g.taskCount()] {
                launched.push_back(id);
            });
        };
        const auto root = g.delay(1.0);
        std::vector<TaskGraph::TaskId> deps;
        for (int i = 0; i < n; ++i)
            deps.push_back(g.notify(record()));
        std::vector<TaskGraph::TaskId> expected;
        for (const int i : order(n)) {
            g.dependsOn(deps[i], root);
            expected.push_back(deps[i]);
        }
        g.releaseRange(root, g.taskCount());
        sim.run();
        EXPECT_TRUE(g.done());
        EXPECT_EQ(launched, expected);
    }

    for (const int n : kFanOuts) {
        SCOPED_TRACE(n);
        Simulator sim;
        TaskGraph g(sim);
        g.start();
        const auto domain = g.openDomain();
        g.setCurrentDomain(domain);
        const auto root = g.delay(10.0);
        int ran = 0;
        std::vector<TaskGraph::TaskId> deps;
        for (int i = 0; i < n; ++i) {
            deps.push_back(g.notify(cb.park([&] { ++ran; })));
            g.dependsOn(deps.back(), root);
        }
        g.setCurrentDomain(TaskGraph::kNoDomain);
        g.releaseRange(root, g.taskCount());
        sim.at(1.0, cb.park([&] {
            EXPECT_EQ(g.revokeDomain(domain),
                      static_cast<std::size_t>(n) + 1);
        }));
        sim.run();
        EXPECT_TRUE(g.done());
        EXPECT_EQ(ran, 0);
        for (const auto id : deps)
            EXPECT_TRUE(g.abandoned(id));
    }
}

TEST(TaskGraph, TrimmedStreamKeepsSideTablesBounded)
{
    // A serving-shaped stream through a trimming graph, past several trim
    // chunks: each step is a root with a fan-out of three notify tasks
    // (a pooled dependent list), and one step is revoked before its root
    // completes. Completion and abandonment both return the list, so the
    // pool stays at what one step holds instead of growing with the
    // stream.
    struct Leaves final : Receiver {
        int ran = 0;
        void onNotify(uint64_t) override { ++ran; }
    };
    Callbacks cb;
    constexpr int kSteps = 2000; // 8,000 tasks: ~7 trim chunks
    constexpr int kRevoked = 1000;
    Simulator sim;
    TaskGraph g(sim);
    g.start();

    Leaves leaves;
    TaskGraph::Domain revoked = TaskGraph::kNoDomain;
    for (int i = 0; i < kSteps; ++i) {
        sim.at(i, cb.park([&, i] {
            if (i == kRevoked) {
                revoked = g.openDomain();
                g.setCurrentDomain(revoked);
            }
            const auto first = g.taskCount();
            const auto root = g.delay(i == kRevoked ? 10.0 : 0.5, {"root", i});
            for (int k = 0; k < 3; ++k) {
                const auto leaf =
                    g.notify(Notify{&leaves, 0}, {"leaf", i, k});
                g.dependsOn(leaf, root);
            }
            g.setCurrentDomain(TaskGraph::kNoDomain);
            g.releaseRange(first, g.taskCount());
        }));
    }
    // Before the next step begins, so one step at a time is ever live.
    sim.at(kRevoked + 0.75,
           cb.park([&] { EXPECT_EQ(g.revokeDomain(revoked), 4u); }));
    sim.run();

    EXPECT_TRUE(g.done());
    EXPECT_EQ(g.taskCount(), 4u * kSteps);
    EXPECT_EQ(leaves.ran, 3 * (kSteps - 1));
    EXPECT_THROW(g.label(0), std::logic_error); // Trimmed.
    EXPECT_EQ(g.fanoutListsAllocated(), 1u);
}

TEST(TaskGraph, WideBarrierLaunchesDependentsInDependsOnOrder)
{
    // A fan-out of 2^17 is wider than 16 bits can count. Every dependent
    // is a notify task firing its own id at one receiver, named in a
    // scrambled order; all of them launch, in that order, when the barrier
    // completes.
    struct Recorder final : Receiver {
        std::vector<uint64_t> fired;
        void onNotify(uint64_t arg) override { fired.push_back(arg); }
    };
    constexpr std::size_t kFanOut = std::size_t{1} << 17;
    Simulator sim;
    TaskTimes times(sim);
    TaskGraph g(sim);
    Recorder recorder;
    const auto gate = g.delay(1.0);
    const auto wide = g.barrier("wide");
    g.dependsOn(wide, gate);
    std::vector<TaskGraph::TaskId> deps;
    for (std::size_t i = 0; i < kFanOut; ++i)
        deps.push_back(g.notify(Notify{&recorder, g.taskCount()}));
    // An odd stride visits every index of a power-of-two range once.
    std::vector<uint64_t> expected;
    for (std::size_t i = 0; i < kFanOut; ++i) {
        const auto dep = deps[(i * 7919) % kFanOut];
        g.dependsOn(dep, wide);
        expected.push_back(dep);
    }
    g.start();
    EXPECT_TRUE(recorder.fired.empty());
    sim.run();
    EXPECT_TRUE(g.done());
    EXPECT_EQ(recorder.fired, expected);
    EXPECT_DOUBLE_EQ(times.start(deps.back()), 1.0);
}

TEST(TaskGraph, EveryTaskIsCacheLineAligned)
{
    // A task is one 64-byte cache line; a task's label is its first field,
    // so its address is the task's. Checked across several storage blocks
    // and, in a trimming graph, in blocks reused after a trim.
    for (const bool trim : {false, true}) {
        SCOPED_TRACE(trim ? "trim" : "no trim");
        Simulator sim;
        TaskGraph g(sim);
        if (trim)
            g.start();
        std::size_t misaligned = 0;
        for (int i = 0; i < 5000; ++i) {
            const auto id = g.barrier({"t", i});
            misaligned +=
                reinterpret_cast<std::uintptr_t>(&g.label(id)) % 64 != 0;
            if (trim)
                g.release(id);
        }
        EXPECT_EQ(misaligned, 0u);
        if (trim) {
            EXPECT_THROW(g.label(0), std::logic_error);
        }
    }
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
