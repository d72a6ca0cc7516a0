/** @file Tests for the multi-node performance engine (train::Engine at
 *  num_nodes > 1): degenerate single-node equivalence, ring all-reduce wire accounting against the
 *  analytic formula, scale-out efficiency bands, and the sync-overlap
 *  ablation. */
#include <gtest/gtest.h>

#include "dist/collective.h"
#include "train/engine.h"

namespace smartinf::dist {
namespace {

using train::IterationResult;
using train::ModelSpec;
using train::Strategy;
using train::SystemConfig;
using train::TrainConfig;

SystemConfig
config(Strategy strategy, int nodes, int devices, bool overlap = true)
{
    SystemConfig sc;
    sc.strategy = strategy;
    sc.num_devices = devices;
    sc.num_nodes = nodes;
    sc.overlap_grad_sync = overlap;
    return sc;
}

IterationResult
run(const ModelSpec &model, const SystemConfig &sc)
{
    TrainConfig tc;
    return train::makeEngine(model, tc, sc)->runIteration();
}

TEST(DistributedEngine, OneNodeMatchesTheSingleNodeEngine)
{
    const auto m = ModelSpec::gpt2(4.0);
    TrainConfig tc;
    const SystemConfig sc = config(Strategy::SmartUpdateOpt, 1, 6);

    train::Engine dist(m, tc, sc);
    const auto d = dist.runIteration();
    const auto s = train::makeEngine(m, tc, sc)->runIteration();
    EXPECT_DOUBLE_EQ(d.iteration_time, s.iteration_time);
    EXPECT_DOUBLE_EQ(d.phases.forward, s.phases.forward);
    EXPECT_DOUBLE_EQ(d.phases.backward, s.phases.backward);
    EXPECT_DOUBLE_EQ(d.phases.update, s.phases.update);
    EXPECT_DOUBLE_EQ(d.traffic.internode_tx, 0.0);
}

TEST(DistributedEngine, FactoryDispatchesOnNodeCount)
{
    const auto m = ModelSpec::gpt2(1.0);
    TrainConfig tc;
    const auto single =
        train::makeEngine(m, tc, config(Strategy::SmartUpdateOpt, 1, 4));
    EXPECT_EQ(single->name(), "Smart-Infinity (SU+O)");
    const auto multi =
        train::makeEngine(m, tc, config(Strategy::SmartUpdateOpt, 4, 4));
    EXPECT_NE(multi->name().find("x4"), std::string::npos);
}

TEST(DistributedEngine, RingAllReduceWireBytesMatchFormula)
{
    const auto m = ModelSpec::gpt2(4.0);
    TrainConfig tc;
    for (int nodes : {2, 4, 8}) {
        for (bool overlap : {true, false}) {
            const SystemConfig sc =
                config(Strategy::SmartUpdateOpt, nodes, 4, overlap);
            train::Engine engine(m, tc, sc);
            const auto r = engine.runIteration();

            const Bytes per_node =
                ringAllReduceTxBytesPerNode(m.gradientBytes(), nodes);
            EXPECT_NEAR(r.traffic.internode_tx / (nodes * per_node), 1.0,
                        1e-9)
                << nodes << " overlap=" << overlap;
            EXPECT_DOUBLE_EQ(r.traffic.internode_rx, r.traffic.internode_tx);
        }
    }
}

TEST(DistributedEngine, Deterministic)
{
    const auto m = ModelSpec::gpt2(4.0);
    const SystemConfig sc = config(Strategy::SmartUpdateOpt, 4, 6);
    const auto a = run(m, sc);
    const auto b = run(m, sc);
    EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
    EXPECT_DOUBLE_EQ(a.phases.update, b.phases.update);
}

TEST(DistributedEngine, PhasesSumToIterationTime)
{
    const auto r = run(ModelSpec::gpt2(4.0),
                       config(Strategy::SmartUpdateOpt, 4, 6));
    EXPECT_NEAR(r.phases.total(), r.iteration_time, 1e-9);
    EXPECT_GT(r.phases.forward, 0.0);
    EXPECT_GT(r.phases.backward, 0.0);
    EXPECT_GT(r.phases.update, 0.0);
}

TEST(DistributedEngine, GradientSyncCostsIterationTime)
{
    // Data-parallel nodes add NIC traffic on the already-busy host
    // interconnect: per-iteration time must grow with the node count.
    const auto m = ModelSpec::gpt2(4.0);
    const double t1 =
        run(m, config(Strategy::SmartUpdateOpt, 1, 8)).iteration_time;
    const double t2 =
        run(m, config(Strategy::SmartUpdateOpt, 2, 8)).iteration_time;
    const double t8 =
        run(m, config(Strategy::SmartUpdateOpt, 8, 8)).iteration_time;
    EXPECT_GT(t2, t1);
    EXPECT_GT(t8, t2);
}

TEST(DistributedEngine, ThroughputScalesWithReasonableEfficiency)
{
    // The scale-out curve the paper never measured: throughput speedup =
    // N * t(1)/t(N). With 8 CSDs/node we observe ~81% efficiency at 2
    // nodes and ~71% at 8; accept generous bands around that.
    const auto m = ModelSpec::gpt2(4.0);
    const double t1 =
        run(m, config(Strategy::SmartUpdateOpt, 1, 8)).iteration_time;
    for (int nodes : {2, 4, 8}) {
        const double tn =
            run(m, config(Strategy::SmartUpdateOpt, nodes, 8))
                .iteration_time;
        const double efficiency = t1 / tn;
        EXPECT_GT(efficiency, 0.55) << nodes;
        EXPECT_LT(efficiency, 1.0) << nodes;
    }
}

TEST(DistributedEngine, OverlappedSyncNoSlowerThanMonolithic)
{
    const auto m = ModelSpec::gpt2(4.0);
    for (Strategy s :
         {Strategy::SmartUpdateOpt, Strategy::SmartUpdateOptComp}) {
        const double overlapped =
            run(m, config(s, 4, 8, true)).iteration_time;
        const double monolithic =
            run(m, config(s, 4, 8, false)).iteration_time;
        EXPECT_LE(overlapped, monolithic * (1.0 + 1e-9))
            << strategyName(s);
    }
}

TEST(DistributedEngine, OverlapHidesSyncOnceOffloadIsCompressed)
{
    // With dense gradients (SU+O) the host interconnect is saturated by
    // offload traffic either way; once SmartComp shrinks the offload wire,
    // bucketed sync genuinely hides behind backward (observed ~1.17x).
    const auto m = ModelSpec::gpt2(4.0);
    const double overlapped =
        run(m, config(Strategy::SmartUpdateOptComp, 4, 8, true))
            .iteration_time;
    const double monolithic =
        run(m, config(Strategy::SmartUpdateOptComp, 4, 8, false))
            .iteration_time;
    EXPECT_GT(monolithic / overlapped, 1.08);
}

TEST(DistributedEngine, BaselineStrategyScalesOutToo)
{
    const auto m = ModelSpec::gpt2(4.0);
    const auto r = run(m, config(Strategy::Baseline, 2, 6));
    EXPECT_GT(r.iteration_time, 0.0);
    const Bytes per_node = ringAllReduceTxBytesPerNode(m.gradientBytes(), 2);
    EXPECT_NEAR(r.traffic.internode_tx / (2 * per_node), 1.0, 1e-9);
}

TEST(DistributedEngine, SmartInfinityStillBeatsBaselineAtScale)
{
    const auto m = ModelSpec::gpt2(4.0);
    const double base =
        run(m, config(Strategy::Baseline, 4, 8)).iteration_time;
    const double smart =
        run(m, config(Strategy::SmartUpdateOptComp, 4, 8)).iteration_time;
    EXPECT_GT(base / smart, 1.3);
}

TEST(DistributedEngine, InvalidConfigsAreFatal)
{
    TrainConfig tc;
    SystemConfig sc = config(Strategy::SmartUpdateOpt, 0, 4);
    EXPECT_THROW(train::Engine(ModelSpec::gpt2(1.0), tc, sc),
                 std::runtime_error);
    SystemConfig bad_nic = config(Strategy::SmartUpdateOpt, 2, 4);
    bad_nic.nic_bandwidth = 0.0;
    EXPECT_THROW(train::Engine(ModelSpec::gpt2(1.0), tc, bad_nic),
                 std::runtime_error);
}

} // namespace
} // namespace smartinf::dist
