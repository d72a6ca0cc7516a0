/**
 * @file
 * Checkpoint/restart training under fault injection: the checkpoint stream
 * writes on the configured cadence, a node crash rewinds to the last
 * durable checkpoint and replays the lost iterations (restart latency
 * includes the repair window and the read-back flows), link degradation
 * only ever delays, a crash mid-sync cancels the ring's
 * in-flight hop flows, and every fault-mode run is bit-identical across
 * repeats. Also pins the inertness contract: arming the fault
 * machinery with no fault category enabled changes nothing, a one-
 * iteration job stages exactly the iteration runIteration() simulates,
 * and a long job's revocation-domain table stays flat.
 */
#include <gtest/gtest.h>

#include <set>

#include "fault/checkpoint_workload.h"
#include "net/flow_network.h"
#include "train/engine.h"
#include "train/sim_context.h"

namespace smartinf {
namespace {

train::ModelSpec
smallModel()
{
    return train::ModelSpec::gpt2(0.5);
}

fault::FaultConfig
baseFault()
{
    fault::FaultConfig config;
    config.num_iterations = 4;
    config.checkpoint_interval = 2;
    return config;
}

train::SystemConfig
smallSystem(int nodes,
            train::Strategy strategy = train::Strategy::SmartUpdateOptComp)
{
    train::SystemConfig system;
    system.strategy = strategy;
    system.num_devices = 4;
    system.num_nodes = nodes;
    return system;
}

train::WorkloadResult
runJob(const fault::FaultConfig &config, int nodes = 1,
       train::Strategy strategy = train::Strategy::SmartUpdateOptComp)
{
    auto engine =
        train::makeEngine(smallModel(), {}, smallSystem(nodes, strategy));
    fault::CheckpointedTrainingWorkload workload(smallModel(), {}, config);
    return engine->run(workload);
}

TEST(CheckpointRestart, FaultFreeJobWritesCheckpointsOnCadence)
{
    // 4 iterations, interval 2 => durable snapshots after iterations 2 and
    // 4. The checkpoint flows are real work overlapping the next
    // iteration, not bookkeeping.
    const auto result = runJob(baseFault());
    EXPECT_FALSE(result.fault.enabled);
    EXPECT_EQ(result.fault.checkpoints_written, 2);
    EXPECT_EQ(result.fault.node_crashes, 0);
    EXPECT_EQ(result.fault.restarts, 0);
    EXPECT_EQ(result.fault.iterations_replayed, 0);
    EXPECT_GT(result.iteration_time, 0.0);

    fault::FaultConfig sparse = baseFault();
    sparse.checkpoint_interval = 3; // snapshots after iteration 3 only
    const auto r3 = runJob(sparse);
    EXPECT_EQ(r3.fault.checkpoints_written, 1);
}

TEST(CheckpointRestart, ArmedButUnusedFaultMachineryIsInert)
{
    // fault.enabled=true with every MTBF at kNever draws no events but
    // flips faults_armed (one revocation domain per iteration/checkpoint).
    // None of that may perturb a single timestamp or event count.
    const auto off = runJob(baseFault());
    fault::FaultConfig armed = baseFault();
    armed.enabled = true; // all categories still kNever
    const auto on = runJob(armed);
    EXPECT_EQ(off.iteration_time, on.iteration_time);
    EXPECT_EQ(off.events_executed, on.events_executed);
    EXPECT_EQ(off.fault.checkpoints_written, on.fault.checkpoints_written);
    EXPECT_FALSE(off.fault.enabled);
    EXPECT_TRUE(on.fault.enabled);
}

TEST(CheckpointRestart, OneIterationJobMatchesRunIteration)
{
    // The checkpointed job and the plain training workload stage the same
    // iteration. A one-iteration job with no checkpoint due (interval 2)
    // and no fault drawn must reproduce runIteration() exactly; its only
    // extra event is the t=0 event that builds the first iteration.
    for (const train::Strategy strategy : train::allStrategies())
        for (const int nodes : {1, 2, 4})
            for (const bool overlap : {true, false}) {
                train::SystemConfig system = smallSystem(nodes, strategy);
                system.overlap_grad_sync = overlap;
                const auto engine = train::makeEngine(smallModel(), {}, system);
                const auto plain = engine->runIteration();
                for (const bool enabled : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << train::strategyName(strategy) << " x"
                                 << nodes << " overlap=" << overlap
                                 << " enabled=" << enabled);
                    fault::FaultConfig config;
                    config.enabled = enabled; // every MTBF stays kNever
                    config.num_iterations = 1;
                    config.checkpoint_interval = 2;
                    ASSERT_TRUE(config.validate().empty());
                    fault::CheckpointedTrainingWorkload job(smallModel(), {},
                                                            config);
                    const auto result = engine->run(job);

                    EXPECT_EQ(result.iteration_time, plain.iteration_time);
                    EXPECT_EQ(result.events_executed,
                              plain.events_executed + 1);
                    EXPECT_EQ(result.fault.checkpoints_written, 0);
                    const train::TrafficLedger &a = result.traffic;
                    const train::TrafficLedger &b = plain.traffic;
                    EXPECT_EQ(a.shared_opt_read, b.shared_opt_read);
                    EXPECT_EQ(a.shared_opt_write, b.shared_opt_write);
                    EXPECT_EQ(a.shared_grad_read, b.shared_grad_read);
                    EXPECT_EQ(a.shared_grad_write, b.shared_grad_write);
                    EXPECT_EQ(a.shared_param_up, b.shared_param_up);
                    EXPECT_EQ(a.internal_read, b.internal_read);
                    EXPECT_EQ(a.internal_write, b.internal_write);
                    EXPECT_EQ(a.internode_tx, b.internode_tx);
                    EXPECT_EQ(a.internode_rx, b.internode_rx);
                    EXPECT_EQ(a.kv_spill_read, b.kv_spill_read);
                    EXPECT_EQ(a.kv_spill_write, b.kv_spill_write);
                }
            }
}

TEST(CheckpointRestart, CrashRewindsToDurableCheckpointAndReplays)
{
    const auto clean = runJob(baseFault());
    fault::FaultConfig config = baseFault();
    config.enabled = true;
    config.num_iterations = 8;
    // A crash process dense on the job's own timescale: with this seed the
    // first failures land inside the first few iterations. The horizon
    // bounds the storm so the job always drains after it.
    config.node_mtbf = clean.iteration_time / 4.0;
    config.repair_time = clean.iteration_time / 8.0;
    config.horizon = 4.0 * clean.iteration_time;
    const auto result = runJob(config);

    EXPECT_GE(result.fault.node_crashes, 1);
    EXPECT_EQ(result.fault.restarts, result.fault.node_crashes);
    // Lost progress was recomputed: with interval 2 a crash can lose at
    // most 2 durable-to-crash iterations plus the one in flight.
    EXPECT_GE(result.fault.iterations_replayed, 1);
    // Replay re-crosses checkpoint boundaries, so at least the fault-free
    // count of snapshots was committed.
    EXPECT_GE(result.fault.checkpoints_written, 4);
    // The job still completed all 8 iterations; everything it redid plus
    // repair and read-back shows up as wall-clock.
    const auto clean8 = [&] {
        fault::FaultConfig c = baseFault();
        c.num_iterations = 8;
        return runJob(c);
    }();
    EXPECT_GT(result.iteration_time, clean8.iteration_time);
}

TEST(CheckpointRestart, RestartLatencyIncludesRepairAndReadBack)
{
    // The crash *times* come from the fault stream and repair_time is not
    // part of the draw: two runs differing only in repair_time see the
    // same crashes, so the longer repair strictly defers completion.
    const auto clean = runJob(baseFault());
    fault::FaultConfig config = baseFault();
    config.enabled = true;
    config.num_iterations = 8;
    config.node_mtbf = clean.iteration_time / 4.0;
    config.horizon = 4.0 * clean.iteration_time;
    config.repair_time = clean.iteration_time / 8.0;
    const auto quick = runJob(config);
    ASSERT_GE(quick.fault.node_crashes, 1);

    fault::FaultConfig slow = config;
    slow.repair_time = clean.iteration_time; // 8x longer repair
    const auto slow_result = runJob(slow);
    // Longer dead windows can absorb crashes that hit the quick-repair run
    // separately, so only the makespan ordering is pinned.
    EXPECT_GE(slow_result.fault.node_crashes, 1);
    EXPECT_GT(slow_result.iteration_time, quick.iteration_time);
}

TEST(CheckpointRestart, FaultRunsAreBitIdenticalAcrossRepeats)
{
    const auto clean = runJob(baseFault());
    fault::FaultConfig config = baseFault();
    config.enabled = true;
    config.num_iterations = 6;
    config.node_mtbf = clean.iteration_time / 2.0;
    config.degrade_mtbf = clean.iteration_time;
    config.horizon = 4.0 * clean.iteration_time;
    const auto a = runJob(config);
    const auto b = runJob(config);
    EXPECT_EQ(a.iteration_time, b.iteration_time);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.fault.node_crashes, b.fault.node_crashes);
    EXPECT_EQ(a.fault.link_degrades, b.fault.link_degrades);
    EXPECT_EQ(a.fault.checkpoints_written, b.fault.checkpoints_written);
    EXPECT_EQ(a.fault.iterations_replayed, b.fault.iterations_replayed);
}

TEST(CheckpointRestart, DegradationOnlyEverDelays)
{
    const auto clean = runJob(baseFault());
    fault::FaultConfig config = baseFault();
    config.enabled = true;
    config.degrade_mtbf = clean.iteration_time / 2.0;
    config.degrade_factor = 0.25;
    config.degrade_duration = clean.iteration_time / 2.0;
    config.horizon = 20.0 * clean.iteration_time;
    const auto result = runJob(config);
    EXPECT_GE(result.fault.link_degrades, 1);
    EXPECT_EQ(result.fault.restarts, 0);
    EXPECT_EQ(result.fault.iterations_replayed, 0);
    EXPECT_GT(result.iteration_time, clean.iteration_time);
    // No work is ever lost to a slow link: same checkpoints.
    EXPECT_EQ(result.fault.checkpoints_written,
              clean.fault.checkpoints_written);
}

TEST(CheckpointRestart, DistributedJobSurvivesCrashes)
{
    // Multi-node: any node's crash takes the whole synchronous job down;
    // every node replays from the shared durable snapshot and the ring
    // all-reduce stitch is rebuilt per replayed iteration.
    const auto clean = runJob(baseFault(), 2);
    fault::FaultConfig config = baseFault();
    config.enabled = true;
    config.num_iterations = 6;
    config.node_mtbf = clean.iteration_time / 4.0;
    config.repair_time = clean.iteration_time / 8.0;
    config.horizon = 4.0 * clean.iteration_time;
    const auto result = runJob(config, 2);
    EXPECT_GE(result.fault.node_crashes, 1);
    EXPECT_EQ(result.fault.restarts, result.fault.node_crashes);
    EXPECT_GT(result.iteration_time, clean.iteration_time);

    const auto repeat = runJob(config, 2);
    EXPECT_EQ(result.iteration_time, repeat.iteration_time);
    EXPECT_EQ(result.events_executed, repeat.events_executed);
}

TEST(CheckpointRestart, LongJobsKeepTheDomainRunTableFlat)
{
    // Every iteration and every checkpoint opens a revocation domain, and
    // each adds its own id runs. The graph trims its completed prefix, and
    // the runs below it with it, so a long job holds the runs of the work
    // in flight, not one per unit of work ever staged.
    const auto runsAfter = [](int iterations) {
        const train::SystemConfig system = smallSystem(1);
        fault::FaultConfig config = baseFault();
        config.enabled = true; // every MTBF stays kNever
        config.num_iterations = iterations;
        train::SimContext ctx(system);
        fault::CheckpointedTrainingWorkload job(smallModel(), {}, config);
        job.build(ctx);
        ctx.graph.start();
        ctx.sim.run();
        EXPECT_TRUE(ctx.graph.done());
        return ctx.graph.domainRunsAllocated();
    };
    EXPECT_LE(runsAfter(128), runsAfter(32));
}

/** Counts the cancelled flows whose route crosses a NIC link. */
struct NicCancels : net::FlowObserver {
    std::set<net::FlowId> nic_flows;
    int cancelled = 0;

    void
    flowStarted(net::FlowId id, const net::Route &route, Bytes,
                Seconds) override
    {
        for (const net::Link *link : route)
            if (link->name().find("nic.") != std::string::npos)
                nic_flows.insert(id);
    }
    void
    flowCancelled(net::FlowId id, Seconds) override
    {
        cancelled += static_cast<int>(nic_flows.count(id));
    }
};

/** Runs @p inner with @p observer watching the run's flow network. */
class WatchedWorkload final : public train::Workload
{
  public:
    WatchedWorkload(train::Workload &inner, net::FlowObserver &observer)
        : inner_(inner), observer_(observer)
    {
    }
    std::string name() const override { return inner_.name(); }
    train::WorkloadKind kind() const override { return inner_.kind(); }
    void
    build(train::SimContext &ctx) override
    {
        ctx.net.setObserver(&observer_);
        inner_.build(ctx);
    }
    void
    collect(const train::SimContext &ctx,
            train::WorkloadResult &out) override
    {
        inner_.collect(ctx, out);
    }

  private:
    train::Workload &inner_;
    net::FlowObserver &observer_;
};

TEST(CheckpointRestart, CrashMidSyncCancelsTheRingHopFlows)
{
    // A crash revokes the iteration's domain; the ring all-reduce hops in
    // flight are part of it, so their NIC-route flows must leave the
    // network instead of contending through repair and restore. Across
    // these seeds, crashes land mid-sync on seeds 3, 4 and 5.
    const auto clean = runJob(baseFault(), 2);
    int crashes = 0;
    int cancelled = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        fault::FaultConfig config = baseFault();
        config.enabled = true;
        config.seed = seed;
        config.node_mtbf = clean.iteration_time / 2.0;
        auto engine = train::makeEngine(smallModel(), {}, smallSystem(2));
        fault::CheckpointedTrainingWorkload job(smallModel(), {}, config);
        NicCancels watch;
        WatchedWorkload watched(job, watch);
        const auto result = engine->run(watched);
        crashes += result.fault.node_crashes;
        cancelled += watch.cancelled;
    }
    EXPECT_GT(crashes, 0);
    EXPECT_GT(cancelled, 0);
}

} // namespace
} // namespace smartinf
