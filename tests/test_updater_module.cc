/** @file Tests for the behavioral FPGA updater modules. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "accel/hls_module.h"
#include "accel/updater.h"
#include "common/random.h"

namespace smartinf::accel {
namespace {

using optim::OptimizerKind;

/** All optimizer kinds the paper exercises (SVII-F). */
class UpdaterBitExact : public ::testing::TestWithParam<OptimizerKind>
{
};

TEST_P(UpdaterBitExact, MatchesHostReferenceBitForBit)
{
    const auto kind = GetParam();
    optim::Hyperparams hp;
    hp.lr = 0.01f;
    auto module = makeUpdater(kind, hp);
    auto reference = optim::makeOptimizer(kind, hp);

    const std::size_t n = 10000;
    Rng rng(77);
    std::vector<float> master_dev(n), master_ref(n), grad(n);
    const int aux = optim::auxStateCount(kind);
    std::vector<std::vector<float>> s_dev(aux, std::vector<float>(n, 0.0f));
    std::vector<std::vector<float>> s_ref(aux, std::vector<float>(n, 0.0f));
    for (std::size_t i = 0; i < n; ++i)
        master_dev[i] = master_ref[i] = static_cast<float>(rng.normal());

    std::vector<float *> p_dev, p_ref;
    for (int a = 0; a < aux; ++a) {
        p_dev.push_back(s_dev[a].data());
        p_ref.push_back(s_ref[a].data());
    }

    for (uint64_t t = 1; t <= 5; ++t) {
        for (auto &g : grad)
            g = static_cast<float>(rng.normal(0.0, 0.01));
        module->processSubgroup(master_dev.data(), grad.data(), p_dev.data(),
                                n, t);
        reference->step(master_ref.data(), grad.data(), p_ref.data(), n, t);
    }
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(master_dev[i], master_ref[i]) << "param " << i;
        for (int a = 0; a < aux; ++a)
            ASSERT_EQ(s_dev[a][i], s_ref[a][i]) << "state " << a << "/" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, UpdaterBitExact,
                         ::testing::Values(OptimizerKind::Adam,
                                           OptimizerKind::AdamW,
                                           OptimizerKind::SgdMomentum,
                                           OptimizerKind::AdaGrad));

TEST(UpdaterModule, SanityCheckerPassesBuiltins)
{
    for (auto kind :
         {OptimizerKind::Adam, OptimizerKind::AdamW,
          OptimizerKind::SgdMomentum, OptimizerKind::AdaGrad}) {
        auto module = makeUpdater(kind, optim::Hyperparams{});
        const auto report = sanityCheckUpdater(*module, 4096, 3, 5);
        EXPECT_TRUE(report.passed) << optim::optimizerName(kind) << ": "
                                   << report.detail;
        EXPECT_EQ(report.max_abs_diff, 0.0);
    }
}

/** A user kernel that computes the reference and then corrupts one array:
 *  the master parameters (@p state < 0) or aux state @p state. */
class CorruptingUpdater final : public UpdaterModule
{
  public:
    CorruptingUpdater(OptimizerKind kind, int state, float value)
        : reference_(kind, optim::Hyperparams{}), state_(state), value_(value)
    {
    }

    OptimizerKind kind() const override { return reference_.kind(); }
    const optim::Hyperparams &
    hyperparams() const override
    {
        return reference_.hyperparams();
    }

    void
    processSubgroup(float *master, const float *grad, float *const *states,
                    std::size_t n, uint64_t step) const override
    {
        reference_.step(master, grad, states, n, step);
        float *target = state_ < 0 ? master : states[state_];
        std::fill(target, target + n, value_);
    }

    ModuleFootprint footprint() const override { return {}; }
    BytesPerSec modelThroughput() const override { return 0.0; }

  private:
    optim::Optimizer reference_;
    int state_;
    float value_;
};

TEST(UpdaterModule, SanityCheckerFailsNanOutput)
{
    const CorruptingUpdater nan_master(
        OptimizerKind::Adam, -1, std::numeric_limits<float>::quiet_NaN());
    const auto report = sanityCheckUpdater(nan_master, 1024, 2, 3);
    EXPECT_FALSE(report.passed) << report.detail;
    EXPECT_EQ(report.mismatches, 1024u);
    EXPECT_TRUE(std::isnan(report.max_abs_diff));
}

TEST(UpdaterModule, SanityCheckerComparesEveryStateArray)
{
    // One step: the master parameters still match, only the state differs.
    for (int state : {0, 1}) {
        const CorruptingUpdater bad_state(OptimizerKind::Adam, state, 0.5f);
        const auto report = sanityCheckUpdater(bad_state, 1024, 1, 3);
        EXPECT_FALSE(report.passed) << "state " << state;
        EXPECT_EQ(report.mismatches, 1024u) << "state " << state;
        EXPECT_GT(report.max_abs_diff, 0.0) << "state " << state;
    }
}

TEST(UpdaterModule, BuiltinFootprintsAndThroughputsArePinned)
{
    // Table III and Fig 14 calibration constants; Adam's reach the table3
    // and fig14 scenario output.
    struct Pin {
        OptimizerKind kind;
        ModuleFootprint fp;
        BytesPerSec throughput;
    };
    const Pin pins[] = {
        {OptimizerKind::Adam, {"updater.adam", 175947, 267, 44, 217},
         GBps(7.2)},
        {OptimizerKind::AdamW, {"updater.adamw", 178847, 267, 44, 225},
         GBps(7.0)},
        {OptimizerKind::SgdMomentum, {"updater.sgd", 108000, 190, 28, 132},
         GBps(8.4)},
        {OptimizerKind::AdaGrad, {"updater.adagrad", 126000, 205, 30, 168},
         GBps(7.9)},
    };
    for (const Pin &pin : pins) {
        const auto module = makeUpdater(pin.kind, optim::Hyperparams{});
        const ModuleFootprint fp = module->footprint();
        const char *name = optim::optimizerName(pin.kind);
        EXPECT_EQ(fp.name, pin.fp.name) << name;
        EXPECT_EQ(fp.luts, pin.fp.luts) << name;
        EXPECT_EQ(fp.brams, pin.fp.brams) << name;
        EXPECT_EQ(fp.urams, pin.fp.urams) << name;
        EXPECT_EQ(fp.dsps, pin.fp.dsps) << name;
        EXPECT_EQ(module->modelThroughput(), pin.throughput) << name;
    }
}

TEST(UpdaterModule, PerformanceAnalyzerKeepsUpWithSsd)
{
    auto module = makeUpdater(OptimizerKind::Adam, optim::Hyperparams{});
    const auto perf = analyzeUpdater(*module, 1 << 14);
    // Fig 14: updater throughput (> 7 GB/s) clears SSD read (~3.2 GB/s).
    EXPECT_GT(perf.modeled_throughput, 7e9);
    EXPECT_TRUE(perf.keeps_up_with_ssd);
    EXPECT_GT(perf.emulation_elems_per_sec, 0.0);
}

TEST(UpdaterModule, FootprintsFitTheKu15p)
{
    FpgaResourceModel fpga;
    auto module = makeUpdater(OptimizerKind::Adam, optim::Hyperparams{});
    EXPECT_NO_THROW(fpga.place(module->footprint()));
}

} // namespace
} // namespace smartinf::accel
