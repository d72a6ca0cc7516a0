/** @file Tests for the Table I traffic accounting. */
#include <gtest/gtest.h>

#include "train/engine.h"

namespace smartinf::train {
namespace {

TrafficLedger
trafficFor(Strategy strategy, double comp_fraction = 0.02)
{
    TrainConfig tc;
    SystemConfig sc;
    sc.strategy = strategy;
    sc.num_devices = 6;
    sc.compression_wire_fraction = comp_fraction;
    return makeEngine(ModelSpec::gpt2(4.0), tc, sc)->runIteration().traffic;
}

/** The paper's M: FP16 model bytes. */
const double kM = ModelSpec::gpt2(4.0).modelBytes();

TEST(Traffic, BaselineMatchesTableIRow)
{
    // ZeRO-Inf: optimizer states 6M read + 6M write; gradients 2M read +
    // 2M write, all over the shared interconnect.
    const auto t = trafficFor(Strategy::Baseline);
    EXPECT_NEAR(t.shared_opt_read / kM, 6.0, 0.01);
    EXPECT_NEAR(t.shared_opt_write / kM, 6.0, 0.01);
    EXPECT_NEAR(t.shared_grad_read / kM, 2.0, 0.01);
    EXPECT_NEAR(t.shared_grad_write / kM, 2.0, 0.01);
    EXPECT_NEAR(t.shared_param_up / kM, 0.0, 0.01);
    EXPECT_EQ(t.internal_read, 0.0);
    EXPECT_EQ(t.internal_write, 0.0);
}

TEST(Traffic, SmartUpdateMatchesTableIRow)
{
    // SmartUpdate: shared interconnect carries only 2M parameter upstream
    // (read) and 2M gradient offload (write); states move internally.
    const auto t = trafficFor(Strategy::SmartUpdate);
    EXPECT_NEAR(t.shared_param_up / kM, 2.0, 0.01);
    EXPECT_NEAR(t.shared_grad_write / kM, 2.0, 0.01);
    EXPECT_EQ(t.shared_opt_read, 0.0);
    EXPECT_EQ(t.shared_opt_write, 0.0);
    EXPECT_EQ(t.shared_grad_read, 0.0);
    // Internal: 8M read (grads + states), 6M write (states incl. master).
    EXPECT_NEAR(t.internal_read / kM, 8.0, 0.01);
    EXPECT_NEAR(t.internal_write / kM, 6.0, 0.01);
}

TEST(Traffic, HandlerOptimizationDoesNotChangeVolumes)
{
    const auto su = trafficFor(Strategy::SmartUpdate);
    const auto suo = trafficFor(Strategy::SmartUpdateOpt);
    EXPECT_NEAR(su.sharedTotal(), suo.sharedTotal(), 1.0);
    EXPECT_NEAR(su.internal_read, suo.internal_read, 1.0);
    EXPECT_NEAR(su.internal_write, suo.internal_write, 1.0);
}

TEST(Traffic, SmartCompMatchesTableIRow)
{
    // SmartComp at c%: gradient write shrinks to c% x 2M; internal read
    // shrinks by the same gradient volume.
    const auto t = trafficFor(Strategy::SmartUpdateOptComp, 0.02);
    EXPECT_NEAR(t.shared_grad_write / kM, 0.02 * 2.0, 0.001);
    EXPECT_NEAR(t.shared_param_up / kM, 2.0, 0.01);
    EXPECT_NEAR(t.internal_read / kM, 6.0 + 0.02 * 2.0, 0.01);
    EXPECT_NEAR(t.internal_write / kM, 6.0, 0.01);
}

TEST(Traffic, CompressionRatioScalesGradientWrite)
{
    const auto t10 = trafficFor(Strategy::SmartUpdateOptComp, 0.10);
    const auto t02 = trafficFor(Strategy::SmartUpdateOptComp, 0.02);
    EXPECT_NEAR(t10.shared_grad_write / t02.shared_grad_write, 5.0, 0.01);
}

TEST(Traffic, SmartUpdateRemovesThreeQuartersOfSharedTraffic)
{
    // The paper's headline: (6+2)M -> 2M per direction.
    const auto base = trafficFor(Strategy::Baseline);
    const auto su = trafficFor(Strategy::SmartUpdate);
    EXPECT_NEAR(su.sharedTotal() / base.sharedTotal(), 4.0 / 16.0, 0.01);
}

TEST(Traffic, SgdMovesThreeQuartersOfAdamStates)
{
    TrainConfig tc;
    SystemConfig sc;
    sc.num_devices = 6;
    sc.optimizer = optim::OptimizerKind::SgdMomentum;
    const auto t =
        makeEngine(ModelSpec::gpt2(4.0), tc, sc)->runIteration().traffic;
    // SGD: master + momentum = 4M instead of 6M.
    EXPECT_NEAR(t.shared_opt_read / kM, 4.0, 0.01);
    EXPECT_NEAR(t.shared_opt_write / kM, 4.0, 0.01);
}

TEST(Traffic, LedgerSharedTotals)
{
    // Internal CSD traffic stays out of the shared totals.
    TrafficLedger a;
    a.shared_opt_read = 12.0;
    a.shared_grad_write = 1.0;
    a.internal_write = 5.0;
    EXPECT_DOUBLE_EQ(a.sharedRead(), 12.0);
    EXPECT_DOUBLE_EQ(a.sharedWrite(), 1.0);
    EXPECT_DOUBLE_EQ(a.sharedTotal(), 13.0);
}

} // namespace
} // namespace smartinf::train
