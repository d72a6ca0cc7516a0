/**
 * @file
 * Event-order digests: a witness that a refactor of the event core or of a
 * workload's timers keeps every event where it was. A test-side
 * sim::SimObserver folds into one 64-bit hash each task start, finish and
 * abandonment (hook, task id, label stem by content plus its two
 * qualifiers, and the bits of the simulated time) and each resource job
 * start and finish (resource name by content, never by address, plus the
 * work and time bits). Two runs with equal digests (barring a hash
 * collision) launched, finished and revoked the same tasks and ran the
 * same jobs at the same instants in the same order. A tie broken the
 * other way shows whenever it changes which task or job went first, even
 * when every reported figure stays put.
 *
 * A change that moves a pinned value changed the event order and must
 * say why; a refactor of the event core moves none. The runs are the five
 * shapes of test_flow_oracle_workloads, a small failover run with
 * crashes, link degradation and shedding, a two-node checkpointed
 * training job with crashes, a control-plane run (join-shortest-queue
 * dispatch, SLO deferral and autoscaling) and a closed-loop client run. Each also checks that attaching the observer
 * changes no output.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "fault/checkpoint_workload.h"
#include "serve/inference_workload.h"
#include "sim/observer.h"
#include "train/engine.h"
#include "train/sim_context.h"
#include "train/training_workload.h"

namespace smartinf::train {
namespace {

/** Folds every task and resource hook into one order-sensitive hash. */
class EventDigest final : public sim::SimObserver
{
  public:
    uint64_t value() const { return hash_; }

    void
    taskStarted(std::size_t id, const sim::TaskLabel &label,
                Seconds now) override
    {
        task(1, id, label, now);
    }
    void
    taskFinished(std::size_t id, const sim::TaskLabel &label,
                 Seconds now) override
    {
        task(2, id, label, now);
    }
    void
    taskAbandoned(std::size_t id, const sim::TaskLabel &label,
                  Seconds now) override
    {
        task(3, id, label, now);
    }
    void
    jobStarted(const sim::Resource &resource, double work,
               Seconds now) override
    {
        job(4, resource, work, now);
    }
    void
    jobFinished(const sim::Resource &resource, double work,
                Seconds now) override
    {
        job(5, resource, work, now);
    }

  private:
    void
    fold(uint64_t word)
    {
        hash_ = (hash_ ^ word) * 0x100000001b3ULL;
        hash_ ^= hash_ >> 29;
    }
    void
    fold(double value)
    {
        uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        fold(bits);
    }
    void
    fold(const std::string &text)
    {
        fold(static_cast<uint64_t>(text.size()));
        for (const char c : text)
            fold(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    void
    task(uint64_t hook, std::size_t id, const sim::TaskLabel &label,
         Seconds now)
    {
        fold(hook);
        fold(static_cast<uint64_t>(id));
        fold(std::string(label.stem));
        fold(static_cast<uint64_t>(static_cast<int64_t>(label.a)));
        fold(static_cast<uint64_t>(static_cast<int64_t>(label.b)));
        fold(now);
    }
    void
    job(uint64_t hook, const sim::Resource &resource, double work,
        Seconds now)
    {
        fold(hook);
        fold(resource.name());
        fold(work);
        fold(now);
    }

    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

using MakeWorkload = std::function<std::unique_ptr<Workload>()>;

/** The outputs an observer must not move. */
void
expectSameOutputs(const WorkloadResult &a, const WorkloadResult &b)
{
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.iteration_time, b.iteration_time);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const RequestRecord &x = a.requests[i];
        const RequestRecord &y = b.requests[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.node, y.node);
        EXPECT_EQ(x.arrival, y.arrival);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.first_token, y.first_token);
        EXPECT_EQ(x.finish, y.finish);
        EXPECT_EQ(x.retries, y.retries);
        EXPECT_EQ(x.deferrals, y.deferrals);
        EXPECT_EQ(x.shed, y.shed);
        EXPECT_EQ(x.rejected, y.rejected);
    }
    EXPECT_EQ(a.fault.node_crashes, b.fault.node_crashes);
    EXPECT_EQ(a.fault.link_degrades, b.fault.link_degrades);
    EXPECT_EQ(a.fault.retries_dispatched, b.fault.retries_dispatched);
    EXPECT_EQ(a.fault.checkpoints_written, b.fault.checkpoints_written);
    EXPECT_EQ(a.fault.restarts, b.fault.restarts);
    EXPECT_EQ(a.ctrl.scale_ups, b.ctrl.scale_ups);
    EXPECT_EQ(a.ctrl.scale_downs, b.ctrl.scale_downs);
    EXPECT_EQ(a.ctrl.warmups_completed, b.ctrl.warmups_completed);
}

/** A run's event digest and its outputs. */
struct Digested {
    uint64_t digest = 0;
    WorkloadResult result;
};

/**
 * Run one workload with the digest attached and once through Engine::run
 * without it; the two must agree on every output.
 */
Digested
digestOf(const ModelSpec &model, const SystemConfig &system,
         const MakeWorkload &make)
{
    EventDigest digest;
    WorkloadResult observed;
    {
        SimContext ctx(system);
        const auto workload = make();
        workload->build(ctx);
        ctx.sim.setObserver(&digest);
        ctx.graph.start();
        ctx.sim.run();
        EXPECT_TRUE(ctx.graph.done());
        observed.kind = workload->kind();
        workload->collect(ctx, observed);
        observed.events_executed = ctx.sim.eventsExecuted();
    }
    const auto engine = makeEngine(model, {}, system);
    const auto fresh = make();
    expectSameOutputs(observed, engine->run(*fresh));
    return {digest.value(), std::move(observed)};
}

SystemConfig
smartSystem(int devices, int nodes)
{
    SystemConfig system;
    system.strategy = Strategy::SmartUpdateOptComp;
    system.num_devices = devices;
    system.num_nodes = nodes;
    return system;
}

Digested
serveDigest(const ModelSpec &model, const SystemConfig &system,
            const serve::ServeConfig &config)
{
    return digestOf(model, system, [&]() {
        return std::make_unique<serve::InferenceWorkload>(model, config);
    });
}

serve::ServeConfig
smallServe()
{
    serve::ServeConfig config;
    config.num_requests = 16;
    config.arrival_rate = 0.5;
    config.prompt_tokens = 64;
    config.output_tokens = 6;
    config.max_batch = 4;
    return config;
}

TEST(EventDigest, ScaleoutRingAllReduceAtFourNodes)
{
    const auto model = ModelSpec::gpt2(0.5);
    const Digested run = digestOf(model, smartSystem(4, 4), [&]() {
        return std::make_unique<TrainingWorkload>(model, TrainConfig{});
    });
    EXPECT_EQ(run.digest, 0x8096f5b048e590d6ULL);
}

TEST(EventDigest, ServeStreamOnOneReplica)
{
    const auto model = ModelSpec::gpt2(0.5);
    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.num_requests = 300;
    config.arrival_rate = 8.0;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.max_batch = 8;
    const Digested run = serveDigest(model, smartSystem(4, 1), config);
    EXPECT_EQ(run.result.requests.size(), 300u);
    EXPECT_EQ(run.digest, 0xaa0ca92688928c91ULL);
}

TEST(EventDigest, PagedPrefixKvSpillOnTwoReplicas)
{
    const auto model = ModelSpec::gpt2(4.0);
    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.num_requests = 40;
    config.arrival_rate = 1.0;
    config.prompt_tokens = 256;
    config.output_tokens = 16;
    config.max_batch = 8;
    config.kv.enabled = true;
    config.kv.hbm_budget = GiB(0.25);
    config.kv.host_budget = GiB(0.5);
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.block_tokens = 16;
    config.kv.prefix.share_fraction = 0.5;
    config.kv.prefix.num_prefixes = 4;
    config.kv.prefix.prefix_tokens = 200;
    config.ctrl.enabled = true;
    config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    const Digested run = serveDigest(model, smartSystem(6, 2), config);
    EXPECT_GT(run.result.kv.prefix_hits, 0u);
    EXPECT_EQ(run.digest, 0x09064b77631beb3bULL);
}

TEST(EventDigest, ServeFailoverWithCrashesAndLinkDegrades)
{
    const auto model = ModelSpec::gpt2(0.5);
    serve::ServeConfig config;
    config.num_requests = 24;
    config.arrival_rate = 0.2;
    config.prompt_tokens = 64;
    config.output_tokens = 6;
    config.max_batch = 4;
    config.fault.enabled = true;
    config.fault.node_mtbf = 20.0;
    config.fault.repair_time = 15.0;
    config.fault.degrade_mtbf = 10.0;
    config.fault.degrade_duration = 5.0;
    config.fault.horizon = 300.0;
    const Digested run = serveDigest(model, smartSystem(4, 2), config);
    EXPECT_GT(run.result.fault.node_crashes, 0);
    EXPECT_GT(run.result.fault.link_degrades, 0);
    EXPECT_EQ(run.digest, 0x6b0dd35c55181d8cULL);
}

TEST(EventDigest, CheckpointedTrainingWithCrashesAndDegrades)
{
    const auto model = ModelSpec::gpt2(0.5);
    fault::FaultConfig faults;
    faults.enabled = true;
    faults.num_iterations = 4;
    faults.node_mtbf = 2.0;
    faults.degrade_mtbf = 1.0;
    faults.repair_time = 2.0;
    faults.horizon = 40.0;
    const Digested run = digestOf(model, smartSystem(4, 1), [&]() {
        return std::make_unique<fault::CheckpointedTrainingWorkload>(
            model, TrainConfig{}, faults);
    });
    EXPECT_GT(run.result.fault.restarts, 0);
    EXPECT_GT(run.result.fault.checkpoints_written, 0);
    EXPECT_GT(run.result.fault.link_degrades, 0);
    EXPECT_EQ(run.digest, 0xb379a8f62555c794ULL);
}

TEST(EventDigest, DistributedCheckpointedTrainingWithCrashes)
{
    // Two nodes, so each iteration stages the ring all-reduce beside the
    // checkpoint stream, which starts after every iteration. Crashes
    // revoke the iteration in flight, and at least one also revokes a
    // checkpoint before it commits, so an iteration is replayed; each
    // restart reads the last commit back.
    const auto model = ModelSpec::gpt2(0.5);
    fault::FaultConfig faults;
    faults.enabled = true;
    faults.num_iterations = 4;
    faults.checkpoint_interval = 1;
    faults.node_mtbf = 1.0;
    faults.repair_time = 1.0;
    faults.horizon = 20.0;
    const Digested run = digestOf(model, smartSystem(4, 2), [&]() {
        return std::make_unique<fault::CheckpointedTrainingWorkload>(
            model, TrainConfig{}, faults);
    });
    EXPECT_GT(run.result.fault.restarts, 0);
    EXPECT_GT(run.result.fault.checkpoints_written, 0);
    EXPECT_GT(run.result.fault.iterations_replayed, 0);
    EXPECT_EQ(run.digest, 0x36b7faf29a05b444ULL);
}

TEST(EventDigest, ServeFailoverRetriesAndSheds)
{
    // Crashes every few seconds against a long repair: requests are
    // displaced, retried after backoff, and shed past the retry limit.
    serve::ServeConfig config = smallServe();
    config.arrival_rate = 0.2;
    config.fault.enabled = true;
    config.fault.node_mtbf = 8.0;
    config.fault.repair_time = 10.0;
    config.fault.degrade_mtbf = 30.0;
    config.fault.retry_limit = 1;
    config.fault.horizon = 300.0;
    const Digested run =
        serveDigest(ModelSpec::gpt2(0.5), smartSystem(4, 2), config);
    EXPECT_GT(run.result.fault.retries_dispatched, 0);
    EXPECT_GT(run.result.fault.requests_shed, 0);
    EXPECT_EQ(run.digest, 0x4f1ff688bf6d89beULL);
}

TEST(EventDigest, ControlPlaneJsqDeferAndAutoscale)
{
    serve::ServeConfig config = smallServe();
    config.num_requests = 0;
    config.output_tokens = 12;
    config.max_batch = 1;
    for (int i = 0; i < 32; ++i)
        config.trace.push_back(0.1 * i);
    for (int i = 0; i < 8; ++i)
        config.trace.push_back(40.0 + 5.0 * i);
    config.ctrl.enabled = true;
    config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    config.ctrl.slo.admission = ctrl::AdmissionMode::Defer;
    config.ctrl.slo.target_p99_s = 2.0;
    config.ctrl.slo.defer_delay_s = 1.0;
    config.ctrl.slo.max_defers = 2;
    config.ctrl.autoscale.enabled = true;
    config.ctrl.autoscale.min_replicas = 1;
    config.ctrl.autoscale.max_replicas = 3;
    config.ctrl.autoscale.window_s = 1.5;
    config.ctrl.autoscale.cooldown_s = 2.0;
    config.ctrl.autoscale.scale_up_depth = 2.5;
    config.ctrl.autoscale.scale_down_depth = 0.5;
    const Digested run =
        serveDigest(ModelSpec::gpt2(0.5), smartSystem(4, 3), config);
    EXPECT_GT(run.result.ctrl.deferrals, 0);
    EXPECT_GT(run.result.ctrl.warmups_completed, 0);
    EXPECT_GT(run.result.ctrl.scale_downs, 0);
    EXPECT_EQ(run.digest, 0xe49d6d363fc500faULL);
}

TEST(EventDigest, ClosedLoopClients)
{
    serve::ServeConfig config = smallServe();
    config.num_requests = 24;
    config.client_mode = serve::ClientMode::ClosedLoop;
    config.concurrency = 5;
    config.think_time = 0.25;
    const Digested run =
        serveDigest(ModelSpec::gpt2(0.5), smartSystem(4, 2), config);
    EXPECT_EQ(run.result.requests.size(), 24u);
    EXPECT_EQ(run.digest, 0x6462d4eae27e37b5ULL);
}

} // namespace
} // namespace smartinf::train
