/** @file Tests for the training engines' timing behaviour against the
 *  paper's qualitative anchors (Figs 3, 9, 10, 11, 12, 17). */
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "train/engine.h"

namespace smartinf::train {
namespace {

IterationResult
run(const ModelSpec &model, Strategy strategy, int devices,
    GpuGrade gpu = GpuGrade::A5000)
{
    TrainConfig tc;
    SystemConfig sc;
    sc.strategy = strategy;
    sc.num_devices = devices;
    sc.gpu = gpu;
    return makeEngine(model, tc, sc)->runIteration();
}

TEST(Engine, PhasesSumToIterationTime)
{
    const auto r = run(ModelSpec::gpt2(4.0), Strategy::Baseline, 6);
    EXPECT_NEAR(r.phases.total(), r.iteration_time, 1e-9);
    EXPECT_GT(r.phases.forward, 0.0);
    EXPECT_GT(r.phases.backward, 0.0);
    EXPECT_GT(r.phases.update, 0.0);
}

TEST(Engine, Deterministic)
{
    const auto a = run(ModelSpec::gpt2(4.0), Strategy::SmartUpdateOpt, 6);
    const auto b = run(ModelSpec::gpt2(4.0), Strategy::SmartUpdateOpt, 6);
    EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
    EXPECT_DOUBLE_EQ(a.phases.update, b.phases.update);
}

/** Fig 3(a): update dominates the baseline (>= ~70%) at 1 SSD across
 *  model sizes. */
class BaselineBreakdown : public ::testing::TestWithParam<double>
{
};

TEST_P(BaselineBreakdown, UpdateDominatesAtOneSsd)
{
    const auto r = run(ModelSpec::gpt2(GetParam()), Strategy::Baseline, 1);
    EXPECT_GT(r.phases.update / r.iteration_time, 0.65);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BaselineBreakdown,
                         ::testing::Values(2.5, 8.3, 20.5));

TEST(Engine, BaselineRaid0Saturates)
{
    // Fig 3(b): speedup grows to ~2.4x then saturates after ~4 SSDs.
    const auto m = ModelSpec::gpt2(4.0);
    const double t1 = run(m, Strategy::Baseline, 1).iteration_time;
    const double t4 = run(m, Strategy::Baseline, 4).iteration_time;
    const double t6 = run(m, Strategy::Baseline, 6).iteration_time;
    const double t10 = run(m, Strategy::Baseline, 10).iteration_time;
    EXPECT_GT(t1 / t4, 2.0);
    EXPECT_LT(t1 / t10, 3.0);
    // Saturation: 6 -> 10 SSDs gains < 5%.
    EXPECT_NEAR(t6 / t10, 1.0, 0.05);
}

TEST(Engine, SmartUpdateSpeedupBandsAtSix)
{
    // Fig 9: SU ~ 1.18-1.24x at 6 SSDs (we accept 1.1-1.35).
    const auto m = ModelSpec::gpt2(4.0);
    const double base = run(m, Strategy::Baseline, 6).iteration_time;
    const double su = run(m, Strategy::SmartUpdate, 6).iteration_time;
    EXPECT_GT(base / su, 1.10);
    EXPECT_LT(base / su, 1.40);
}

TEST(Engine, SmartUpdateSpeedupBandsAtTen)
{
    // Fig 9: SU ~ 1.54-1.60x at 10 SSDs (we accept 1.35-1.75).
    const auto m = ModelSpec::gpt2(4.0);
    const double base = run(m, Strategy::Baseline, 10).iteration_time;
    const double su = run(m, Strategy::SmartUpdate, 10).iteration_time;
    EXPECT_GT(base / su, 1.35);
    EXPECT_LT(base / su, 1.75);
}

TEST(Engine, FullSystemSpeedupBandAtTen)
{
    // Fig 9: SU+O+C ~ 1.85-1.98x at 10 SSDs (we accept 1.7-2.2).
    const auto m = ModelSpec::gpt2(4.0);
    const double base = run(m, Strategy::Baseline, 10).iteration_time;
    const double all = run(m, Strategy::SmartUpdateOptComp, 10).iteration_time;
    EXPECT_GT(base / all, 1.70);
    EXPECT_LT(base / all, 2.20);
}

TEST(Engine, AblationOrderingAtTenDevices)
{
    // Each Smart-Infinity component helps: SU < SU+O < SU+O+C in speedup.
    const auto m = ModelSpec::gpt2(4.0);
    const double su = run(m, Strategy::SmartUpdate, 10).iteration_time;
    const double suo = run(m, Strategy::SmartUpdateOpt, 10).iteration_time;
    const double suoc =
        run(m, Strategy::SmartUpdateOptComp, 10).iteration_time;
    EXPECT_LT(suo, su);
    EXPECT_LT(suoc, suo);
}

TEST(Engine, SingleCsdIsSlightlySlowerThanBaseline)
{
    // Fig 11: no bandwidth aggregation with one CSD -> no speedup.
    const auto m = ModelSpec::gpt2(4.0);
    const double base = run(m, Strategy::Baseline, 1).iteration_time;
    const double su = run(m, Strategy::SmartUpdateOpt, 1).iteration_time;
    EXPECT_GT(su, base * 0.95);
}

TEST(Engine, SmartInfinityScalesWithCsdCount)
{
    // Fig 11: near-linear speedup with more CSDs while baseline is flat.
    const auto m = ModelSpec::gpt2(4.0);
    const double t2 = run(m, Strategy::SmartUpdateOpt, 2).iteration_time;
    const double t4 = run(m, Strategy::SmartUpdateOpt, 4).iteration_time;
    const double t8 = run(m, Strategy::SmartUpdateOpt, 8).iteration_time;
    EXPECT_GT(t2 / t4, 1.25);
    EXPECT_GT(t4 / t8, 1.15);
}

TEST(Engine, HigherEndGpuYieldsHigherSpeedup)
{
    // Fig 11: the A100 shrinks FW/BW, so the transfer share grows and
    // Smart-Infinity's relative gain increases (up to 2.11x in the paper).
    const auto m = ModelSpec::gpt2(4.0);
    const double sp_a5000 =
        run(m, Strategy::Baseline, 10).iteration_time /
        run(m, Strategy::SmartUpdateOptComp, 10).iteration_time;
    const double sp_a100 =
        run(m, Strategy::Baseline, 10, GpuGrade::A100_40GB).iteration_time /
        run(m, Strategy::SmartUpdateOptComp, 10, GpuGrade::A100_40GB)
            .iteration_time;
    EXPECT_GT(sp_a100, sp_a5000);
}

TEST(Engine, LargerModelsKeepStableSpeedup)
{
    // Fig 10: speedup holds for 16.6B-33B models.
    for (double billions : {16.6, 24.8, 33.0}) {
        const auto m = ModelSpec::gpt2(billions);
        const double base = run(m, Strategy::Baseline, 10).iteration_time;
        const double all =
            run(m, Strategy::SmartUpdateOptComp, 10).iteration_time;
        EXPECT_GT(base / all, 1.6) << billions << "B";
        EXPECT_LT(base / all, 2.3) << billions << "B";
    }
}

TEST(Engine, OtherOptimizersStillSpeedUp)
{
    // Fig 12: SGD/AdaGrad move 4M instead of 6M of states, so the speedup
    // is slightly lower than Adam's but still substantial.
    const auto m = ModelSpec::gpt2(4.0);
    TrainConfig tc;
    for (auto kind : {optim::OptimizerKind::SgdMomentum,
                      optim::OptimizerKind::AdaGrad}) {
        SystemConfig base_cfg;
        base_cfg.num_devices = 10;
        base_cfg.optimizer = kind;
        SystemConfig smart_cfg = base_cfg;
        smart_cfg.strategy = Strategy::SmartUpdateOpt;
        const double base =
            makeEngine(m, tc, base_cfg)->runIteration().iteration_time;
        const double smart =
            makeEngine(m, tc, smart_cfg)->runIteration().iteration_time;
        EXPECT_GT(base / smart, 1.2) << optim::optimizerName(kind);
    }

    SystemConfig adam_base;
    adam_base.num_devices = 10;
    SystemConfig adam_smart = adam_base;
    adam_smart.strategy = Strategy::SmartUpdateOpt;
    SystemConfig sgd_base = adam_base;
    sgd_base.optimizer = optim::OptimizerKind::SgdMomentum;
    SystemConfig sgd_smart = adam_smart;
    sgd_smart.optimizer = optim::OptimizerKind::SgdMomentum;
    const double sp_adam =
        makeEngine(m, tc, adam_base)->runIteration().iteration_time /
        makeEngine(m, tc, adam_smart)->runIteration().iteration_time;
    const double sp_sgd =
        makeEngine(m, tc, sgd_base)->runIteration().iteration_time /
        makeEngine(m, tc, sgd_smart)->runIteration().iteration_time;
    EXPECT_LT(sp_sgd, sp_adam);
}

TEST(Engine, CompressionRatioTradeoff)
{
    // Fig 16: lower wire fraction -> faster (or equal) iterations.
    const auto m = ModelSpec::gpt2(4.0);
    TrainConfig tc;
    double prev = 0.0;
    for (double ratio : {0.20, 0.10, 0.04, 0.02}) {
        SystemConfig sc;
        sc.strategy = Strategy::SmartUpdateOptComp;
        sc.num_devices = 10;
        sc.compression_wire_fraction = ratio;
        const double t = makeEngine(m, tc, sc)->runIteration().iteration_time;
        if (prev > 0.0) {
            EXPECT_LE(t, prev * 1.01) << ratio;
        }
        prev = t;
    }
}

TEST(Engine, CongestedTopologyReducesButKeepsSpeedup)
{
    // Fig 17: GPUs sharing the expansion switch lower the speedup, but
    // Smart-Infinity still wins clearly with 10 CSDs.
    const auto m = ModelSpec::gpt2(1.16);
    TrainConfig tc;
    SystemConfig congested;
    congested.num_devices = 10;
    congested.num_gpus = 2;
    congested.gpu = GpuGrade::A4000;
    congested.congested_topology = true;

    SystemConfig base_cfg = congested;
    SystemConfig smart_cfg = congested;
    smart_cfg.strategy = Strategy::SmartUpdateOptComp;
    const double base =
        makeEngine(m, tc, base_cfg)->runIteration().iteration_time;
    const double smart =
        makeEngine(m, tc, smart_cfg)->runIteration().iteration_time;
    EXPECT_GT(base / smart, 1.4);

    // Same GPUs on a clean (non-congested) topology: contention can only
    // cost time, so the congested runs are at least as slow.
    SystemConfig clean_smart_cfg = smart_cfg;
    clean_smart_cfg.congested_topology = false;
    const double clean_smart =
        makeEngine(m, tc, clean_smart_cfg)->runIteration().iteration_time;
    EXPECT_GE(smart, clean_smart * 0.999);
    // Paper Fig 17: still a clear win band with ten CSDs (1.66-1.86x).
    EXPECT_LT(base / smart, 2.2);
}

TEST(Engine, InvalidConfigsAreFatal)
{
    TrainConfig tc;
    SystemConfig sc;
    sc.num_devices = 0;
    EXPECT_THROW(makeEngine(ModelSpec::gpt2(1.0), tc, sc),
                 std::runtime_error);
    SystemConfig sc2;
    sc2.strategy = Strategy::SmartUpdateOptComp;
    sc2.compression_wire_fraction = 0.0;
    EXPECT_THROW(makeEngine(ModelSpec::gpt2(1.0), tc, sc2),
                 std::runtime_error);
}

TEST(Engine, NamesArePinned)
{
    // The names reach RunRecord "engine" JSON and trace run labels.
    const std::pair<Strategy, std::string> bases[] = {
        {Strategy::Baseline, "ZeRO-Infinity (RAID0)"},
        {Strategy::SmartUpdate, "Smart-Infinity (SU)"},
        {Strategy::SmartUpdateOpt, "Smart-Infinity (SU+O)"},
        {Strategy::SmartUpdateOptComp, "Smart-Infinity (SU+O+C)"},
    };
    const std::pair<int, std::string> suffixes[] = {
        {1, ""}, {2, " x2 nodes"}, {4, " x4 nodes"}};
    TrainConfig tc;
    for (const auto &[strategy, base] : bases) {
        for (const auto &[nodes, suffix] : suffixes) {
            SystemConfig sc;
            sc.strategy = strategy;
            sc.num_nodes = nodes;
            EXPECT_EQ(makeEngine(ModelSpec::gpt2(1.0), tc, sc)->name(),
                      base + suffix);
        }
    }
}

} // namespace
} // namespace smartinf::train
