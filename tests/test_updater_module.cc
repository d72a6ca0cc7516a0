/** @file Tests for the behavioral FPGA updater modules. */
#include <gtest/gtest.h>

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
