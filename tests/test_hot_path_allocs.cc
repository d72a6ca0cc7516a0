/**
 * @file
 * The serving and training event loops' allocation budgets. A transfer's
 * setup must not touch the heap: its route is resolved once by its
 * builder, link state is indexed by Link::id(), a flow slot and a
 * contention component keep their buffers across reuse, and a resource
 * job, a flow or a delay event completes its task by id instead of
 * holding a closure. This binary replaces the global operator new/delete
 * with a counting pair, so it is a test of its own. The serving test
 * counts the calls made inside Engine::run (build, run and collect) on a
 * serve_stream_20k-shaped config of 1000 requests; the training test
 * counts the event loop of a 4-node ring all-reduce iteration; the task
 * test counts building and running 40,000 plain data tasks.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "net/topology.h"
#include "serve/inference_workload.h"
#include "train/engine.h"
#include "train/sim_context.h"
#include "train/training_workload.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace smartinf::serve {
namespace {

TEST(HotPathAllocs, ServingEventLoopAllocatesUnderATenthPerEvent)
{
    const auto model = train::ModelSpec::gpt2(0.5);
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;

    ServeConfig config;
    config.scheduler = SchedulerPolicy::Continuous;
    config.num_requests = 1000;
    config.arrival_rate = 8.0;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.max_batch = 8;
    config.record_cap = 4096;
    config.stream_window_s = 60.0;

    auto engine = train::makeEngine(model, {}, system);
    InferenceWorkload workload(model, config);
    g_allocations = 0;
    g_counting = true;
    const train::WorkloadResult result = engine->run(workload);
    g_counting = false;

    const std::size_t allocations = g_allocations;
    ASSERT_GT(result.events_executed, 0u);
    const double per_event = static_cast<double>(allocations) /
                             static_cast<double>(result.events_executed);
    std::cout << allocations << " allocations over "
              << result.events_executed << " events = " << per_event
              << " per event\n";
    EXPECT_LT(per_event, 0.1);
}

TEST(HotPathAllocs, TrainingRingAllReduceLoopStaysUnderItsBudget)
{
    // Every ring hop starts flows that join a contention component, and
    // every completion leaves one. A training iteration builds its whole
    // task graph up front, which would swamp the count, so only the event
    // loop is counted. Measured at 0.37 allocations per event (769 over
    // 2081 events, nearly all in the first 1000 events while buffers
    // grow); one allocation per flow start would add about 0.5.
    const auto model = train::ModelSpec::gpt2(0.5);
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    system.num_nodes = 4;

    train::SimContext ctx(system);
    train::TrainingWorkload workload(model, train::TrainConfig{});
    workload.build(ctx);
    ctx.graph.start();
    g_allocations = 0;
    g_counting = true;
    ctx.sim.run();
    g_counting = false;

    const std::size_t allocations = g_allocations;
    const uint64_t events = ctx.sim.eventsExecuted();
    ASSERT_TRUE(ctx.graph.done());
    ASSERT_GT(events, 0u);
    const double per_event =
        static_cast<double>(allocations) / static_cast<double>(events);
    std::cout << allocations << " allocations over " << events
              << " events = " << per_event << " per event\n";
    EXPECT_LT(per_event, 0.45);
}

TEST(HotPathAllocs, DataTasksAllocateOnlyForBlockGrowth)
{
    // A task is data: adding and running compute, delay, transfer and
    // barrier tasks allocates only when the graph grows a storage block
    // of 1024 tasks (or a buffer first grows to its high-water mark). Each
    // task depends on the two before it, so every task has two dependents
    // stored inline and no fan-out list is used.
    using TaskId = sim::TaskGraph::TaskId;
    constexpr std::size_t kPerKind = 10000;
    train::SystemConfig system;
    train::SimContext ctx(system);
    net::Link &link = ctx.topo.addLink("l", 1e9);
    const train::ResolvedRoute route{{}, &ctx, {&link}, 1e-6};
    sim::Resource gpu(ctx.sim, "gpu", 1e9);
    sim::TaskGraph &graph = ctx.graph;

    g_allocations = 0;
    g_counting = true;
    std::vector<TaskId> ids;
    for (std::size_t i = 0; i < kPerKind; ++i) {
        ids = {graph.compute(gpu, 1e3), graph.delay(1e-6),
               ctx.transfer(route, 1e3), graph.barrier()};
        for (const TaskId id : ids)
            for (TaskId dep = id >= 2 ? id - 2 : 0; dep < id; ++dep)
                graph.dependsOn(id, dep);
    }
    graph.start();
    ctx.sim.run();
    g_counting = false;

    const std::size_t allocations = g_allocations;
    const std::size_t tasks = 4 * kPerKind;
    ASSERT_TRUE(graph.done());
    ASSERT_EQ(graph.taskCount(), tasks);
    EXPECT_EQ(graph.fanoutListsAllocated(), 0u);
    const std::size_t blocks = (tasks + 1023) / 1024;
    std::cout << allocations << " allocations for " << tasks << " tasks in "
              << blocks << " blocks\n";
    EXPECT_LE(allocations, blocks + 64); // One per task would be 40,000.
}

TEST(HotPathAllocs, ValidConfigsValidateWithoutAllocating)
{
    // validate() runs inside the timed set-up (the InferenceWorkload and
    // Engine constructors): a valid config builds no message.
    ServeConfig config;
    config.prompt_lengths.kind = LengthDistKind::Lognormal;
    config.output_lengths.kind = LengthDistKind::Lognormal;
    config.kv.enabled = true;
    config.kv.layout = KvLayout::Paged;
    config.kv.prefix.share_fraction = 0.5;
    config.ctrl.enabled = true;
    config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    config.ctrl.slo.admission = ctrl::AdmissionMode::Reject;
    config.ctrl.slo.target_p99_s = 2.0;
    config.ctrl.autoscale.enabled = true;
    config.ctrl.autoscale.max_replicas = 4;
    train::SystemConfig system;
    system.num_nodes = 4;

    g_allocations = 0;
    g_counting = true;
    const bool serve_valid = config.validate().empty();
    const bool system_valid = system.validate().empty();
    g_counting = false;

    EXPECT_TRUE(serve_valid);
    EXPECT_TRUE(system_valid);
    EXPECT_EQ(g_allocations.load(), 0u);
}

} // namespace
} // namespace smartinf::serve
