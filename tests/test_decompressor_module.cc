/** @file Tests for the behavioral FPGA Top-K decompressor. */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "accel/decompressor.h"
#include "accel/updater.h"
#include "common/random.h"
#include "compress/topk.h"
#include "csd/smartssd.h"

namespace smartinf::accel {
namespace {

TEST(Decompressor, IgnoresIndicesOutsideSubgroup)
{
    compress::SparseGradient sparse;
    sparse.dense_size = 100; // Indices are global within a larger shard.
    sparse.indices = {5, 50, 95};
    sparse.values = {1.0f, 2.0f, 3.0f};

    auto module = makeTopKDecompressor();
    // Subgroup covering [40, 60): only index 50 lands here.
    std::vector<float> out(20, -1.0f);
    module->decompressSubgroup(sparse, 40, out.data(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i == 10)
            EXPECT_FLOAT_EQ(out[i], 2.0f);
        else
            EXPECT_FLOAT_EQ(out[i], 0.0f) << i;
    }
}

TEST(Decompressor, PartitionsReassembleTheDenseVector)
{
    // Decompressing per-subgroup must tile back into the full gradient —
    // the property the multi-CSD distribution (SIV-D) relies on.
    const std::size_t n = 1000;
    Rng rng(21);
    std::vector<float> dense(n);
    for (auto &v : dense)
        v = static_cast<float>(rng.normal());
    compress::TopKCompressor comp(0.05);
    const auto sparse = comp.compress(dense.data(), n);

    std::vector<float> reference(n);
    compress::TopKCompressor::decompress(sparse, reference.data(), n);

    auto module = makeTopKDecompressor();
    std::vector<float> tiled(n, -7.0f);
    const std::size_t subgroup = 128;
    for (std::size_t base = 0; base < n; base += subgroup) {
        const std::size_t len = std::min(subgroup, n - base);
        module->decompressSubgroup(sparse, base, tiled.data() + base, len);
    }
    EXPECT_EQ(tiled, reference);
}

TEST(Decompressor, FootprintAndThroughputArePinned)
{
    // Table III and Fig 14 calibration constants.
    auto module = makeTopKDecompressor();
    const ModuleFootprint fp = module->footprint();
    EXPECT_EQ(fp.name, "decompressor.topk");
    EXPECT_EQ(fp.luts, 2404u);
    EXPECT_EQ(fp.brams, 0u);
    EXPECT_EQ(fp.urams, 2u);
    EXPECT_EQ(fp.dsps, 0u);
    EXPECT_EQ(module->modelThroughput(), GBps(3.6));
}

TEST(Decompressor, FootprintIsTinyRouting)
{
    auto module = makeTopKDecompressor();
    const auto fp = module->footprint();
    // Table III: no arithmetic — zero DSPs/BRAMs, small LUT count.
    EXPECT_EQ(fp.dsps, 0u);
    EXPECT_EQ(fp.brams, 0u);
    EXPECT_LT(fp.luts, 10000u);
}

TEST(Decompressor, ThroughputClearsSsdRead)
{
    // Fig 14: the decompressor slightly surpasses SSD read throughput,
    // but stays below the Adam updater's.
    const auto module = makeTopKDecompressor();
    const auto adam = makeUpdater(optim::OptimizerKind::Adam,
                                  optim::Hyperparams{});
    EXPECT_GE(module->modelThroughput(), csd::smartssd::kSsdRead);
    EXPECT_LT(module->modelThroughput(), adam->modelThroughput());
}

} // namespace
} // namespace smartinf::accel
