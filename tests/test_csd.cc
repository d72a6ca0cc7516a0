/** @file Tests for the CSD composition. */
#include <gtest/gtest.h>

#include "accel/hls_module.h"
#include "csd/csd.h"
#include "csd/smartssd.h"

namespace smartinf::csd {
namespace {

TEST(Csd, ComposesSsdAndFpgaMemory)
{
    Csd csd("csd0", 4096);
    EXPECT_EQ(csd.ssd().capacity(), 4096u);
    EXPECT_EQ(csd.fpgaMemory().capacity(),
              static_cast<std::size_t>(smartssd::kFpgaDram));
    EXPECT_EQ(csd.updater(), nullptr);
    EXPECT_EQ(csd.decompressor(), nullptr);
}

TEST(Csd, InstallUpdaterPlacesResources)
{
    Csd csd("csd0", 1024);
    csd.installUpdater(accel::makeUpdater(optim::OptimizerKind::Adam,
                                          optim::Hyperparams{}));
    EXPECT_NE(csd.updater(), nullptr);
    EXPECT_NEAR(csd.resources().lutUtilization(), 0.3366, 0.005);
}

TEST(Csd, InstallDecompressorAddsFootprint)
{
    Csd csd("csd0", 1024);
    csd.installUpdater(accel::makeUpdater(optim::OptimizerKind::Adam,
                                          optim::Hyperparams{}));
    const double lut_before = csd.resources().lutUtilization();
    csd.installDecompressor(accel::makeTopKDecompressor());
    EXPECT_GT(csd.resources().lutUtilization(), lut_before);
    EXPECT_NE(csd.decompressor(), nullptr);
}

TEST(Csd, ReinstallReplacesFootprint)
{
    Csd csd("csd0", 1024);
    csd.installUpdater(accel::makeUpdater(optim::OptimizerKind::Adam,
                                          optim::Hyperparams{}));
    const double adam_lut = csd.resources().lutUtilization();
    csd.installUpdater(accel::makeUpdater(optim::OptimizerKind::SgdMomentum,
                                          optim::Hyperparams{}));
    // SGD is smaller than Adam and replaces (not stacks on) it.
    EXPECT_LT(csd.resources().lutUtilization(), adam_lut);
}

TEST(Csd, NullModuleIsFatal)
{
    Csd csd("csd0", 1024);
    EXPECT_THROW(csd.installUpdater(nullptr), std::runtime_error);
    EXPECT_THROW(csd.installDecompressor(nullptr), std::runtime_error);
}

TEST(Csd, SsdContentsPersistAcrossKernelSwaps)
{
    Csd csd("csd0", 64);
    const float v = 1.25f;
    csd.ssd().writeFloats(&v, 1, 0);
    csd.installUpdater(accel::makeUpdater(optim::OptimizerKind::Adam,
                                          optim::Hyperparams{}));
    float back = 0.0f;
    csd.ssd().readFloats(&back, 1, 0);
    EXPECT_EQ(back, v);
}

} // namespace
} // namespace smartinf::csd
