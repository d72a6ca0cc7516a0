/** @file Tests for the behavioral FPGA Top-K decompressor. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "accel/decompressor.h"
#include "accel/hls_module.h"
#include "common/random.h"
#include "compress/topk.h"

namespace smartinf::accel {
namespace {

TEST(Decompressor, MatchesReferenceScatter)
{
    auto module = makeTopKDecompressor();
    const auto report = sanityCheckDecompressor(*module, 0.01, 1 << 14, 9);
    EXPECT_TRUE(report.passed) << report.detail;
    EXPECT_EQ(report.max_abs_diff, 0.0);
}

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

/** A user kernel that writes quiet-NaN over the whole subgroup. */
class NanDecompressor final : public DecompressorModule
{
  public:
    void
    decompressSubgroup(const compress::SparseGradient & /*sparse*/,
                       std::size_t /*subgroup_base*/, float *out,
                       std::size_t n) const override
    {
        std::fill(out, out + n, std::numeric_limits<float>::quiet_NaN());
    }
    ModuleFootprint footprint() const override { return {}; }
    BytesPerSec modelThroughput() const override { return 0.0; }
};

TEST(Decompressor, SanityCheckerFailsNanOutput)
{
    const NanDecompressor module;
    const auto report = sanityCheckDecompressor(module, 0.01, 4096, 9);
    EXPECT_FALSE(report.passed) << report.detail;
    EXPECT_EQ(report.mismatches, 4096u);
    EXPECT_TRUE(std::isnan(report.max_abs_diff));
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
    auto module = makeTopKDecompressor();
    const auto perf = analyzeDecompressor(*module);
    // Fig 14: decompressor slightly surpasses SSD read throughput.
    EXPECT_TRUE(perf.keeps_up_with_ssd);
    EXPECT_GT(perf.modeled_throughput, 3.2e9);
    EXPECT_LT(perf.modeled_throughput, 7e9); // But below the updater.
}

} // namespace
} // namespace smartinf::accel
