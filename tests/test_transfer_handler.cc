/** @file Tests for the internal data transfer handler (paper SIV-B). */
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/hls_module.h"
#include "common/random.h"
#include "csd/csd.h"
#include "train/transfer_handler.h"

namespace smartinf::train {
namespace {

/** Build a CSD with an Adam shard of @p elems initialized parameters. */
struct Fixture {
    ShardLayout layout;
    csd::Csd device;
    std::vector<float> init_params;
    std::vector<float> grads;

    explicit Fixture(std::size_t elems, uint64_t seed = 3)
        : layout{elems, 2},
          device("csd0", layout.totalBytes())
    {
        device.installUpdater(accel::makeUpdater(optim::OptimizerKind::Adam,
                                                 optim::Hyperparams{}));
        Rng rng(seed);
        init_params.resize(elems);
        grads.resize(elems);
        for (std::size_t i = 0; i < elems; ++i) {
            init_params[i] = static_cast<float>(rng.normal());
            grads[i] = static_cast<float>(rng.normal(0.0, 0.01));
        }
        device.ssd().writeFloats(init_params.data(), elems,
                                 layout.masterOffset());
        const std::vector<float> zeros(elems, 0.0f);
        device.ssd().writeFloats(zeros.data(), elems, layout.auxOffset(0));
        device.ssd().writeFloats(zeros.data(), elems, layout.auxOffset(1));
        device.ssd().writeFloats(grads.data(), elems, layout.gradOffset());
    }
};

/** Host-side expected result for one Adam step. */
std::vector<float>
hostReference(const std::vector<float> &params, const std::vector<float> &grads,
              uint64_t steps = 1)
{
    auto opt = optim::makeOptimizer(optim::OptimizerKind::Adam,
                                    optim::Hyperparams{});
    std::vector<float> master = params;
    std::vector<float> mmt(params.size(), 0.0f), var(params.size(), 0.0f);
    float *states[] = {mmt.data(), var.data()};
    for (uint64_t t = 1; t <= steps; ++t)
        opt->step(master.data(), grads.data(), states, master.size(), t);
    return master;
}

TEST(TransferHandler, OptimizedMatchesHostReference)
{
    Fixture fx(10000);
    TransferHandler handler(fx.device, fx.layout, 1024);
    std::vector<float> upstream(10000, 0.0f);
    handler.runUpdate(1, upstream.data());
    EXPECT_EQ(upstream, hostReference(fx.init_params, fx.grads));
}

TEST(TransferHandler, WritesStatesBackToSsd)
{
    Fixture fx(512);
    TransferHandler handler(fx.device, fx.layout, 128);
    handler.runUpdate(1, nullptr);
    // Momentum after one Adam step = (1-beta1) * grad.
    std::vector<float> mmt(512);
    fx.device.ssd().readFloats(mmt.data(), 512, fx.layout.auxOffset(0));
    for (std::size_t i = 0; i < 512; ++i)
        EXPECT_FLOAT_EQ(mmt[i], 0.1f * fx.grads[i]);
}

TEST(TransferHandler, MultipleStepsAccumulateState)
{
    Fixture fx(2048);
    TransferHandler handler(fx.device, fx.layout, 256);
    std::vector<float> upstream(2048);
    // Same gradients twice (they stay on the SSD between runs).
    handler.runUpdate(1, upstream.data());
    handler.runUpdate(2, upstream.data());
    EXPECT_EQ(upstream, hostReference(fx.init_params, fx.grads, 2));
}

TEST(TransferHandler, SubgroupCountCeil)
{
    Fixture fx(1000);
    TransferHandler handler(fx.device, fx.layout, 300);
    EXPECT_EQ(handler.subgroupCount(), 4u); // ceil(1000/300).
}

TEST(TransferHandler, DeviceMemoryBoundedByPreallocation)
{
    Fixture fx(100000);
    const std::size_t chunk = 4096;
    TransferHandler handler(fx.device, fx.layout, chunk);
    handler.runUpdate(1, nullptr);
    // Double-buffered: 2 slots x 4 variables x chunk floats.
    EXPECT_LE(handler.peakDeviceMemory(), 2 * 4 * chunk * sizeof(float));
    EXPECT_GT(handler.peakDeviceMemory(), 0u);
}

TEST(TransferHandler, BuffersAllocatedOnceAndReused)
{
    // The paper's pre-allocation: the slots exist from construction and
    // every update reuses them, so device memory never moves.
    Fixture fx(100000);
    const std::size_t chunk = 4096;
    const std::size_t slots = 2;
    // grad + master + 2 Adam states per slot.
    const std::size_t footprint = slots * 4 * chunk * sizeof(float);
    TransferHandler handler(fx.device, fx.layout, chunk);
    EXPECT_EQ(fx.device.fpgaMemory().allocated(), footprint);
    for (uint64_t t = 1; t <= 3; ++t) {
        handler.runUpdate(t, nullptr);
        EXPECT_EQ(fx.device.fpgaMemory().allocated(), footprint);
    }
    EXPECT_EQ(handler.peakDeviceMemory(), footprint);
}

TEST(TransferHandler, CompressedPathMatchesReferenceDecompression)
{
    const std::size_t n = 8192;
    Fixture fx(n);
    fx.device.installDecompressor(accel::makeTopKDecompressor());

    compress::TopKCompressor comp(0.05);
    const auto sparse = comp.compress(fx.grads.data(), n);
    std::vector<float> dense(n);
    compress::TopKCompressor::decompress(sparse, dense.data(), n);

    TransferHandler handler(fx.device, fx.layout, 1024);
    std::vector<float> upstream(n);
    handler.runUpdateCompressed(sparse, 1, upstream.data());
    EXPECT_EQ(upstream, hostReference(fx.init_params, dense));
}

TEST(TransferHandler, CompressedWithoutDecompressorIsFatal)
{
    Fixture fx(256);
    TransferHandler handler(fx.device, fx.layout, 64);
    compress::SparseGradient sparse;
    sparse.dense_size = 256;
    EXPECT_THROW(handler.runUpdateCompressed(sparse, 1, nullptr),
                 std::runtime_error);
}

TEST(TransferHandler, UnsortedSparseGradientIsRefused)
{
    // Ascending indices are part of the wire format: the decompressor
    // finds each subgroup's pairs by binary search, so a shuffled or
    // repeated index list is refused before any subgroup runs.
    Fixture fx(256);
    fx.device.installDecompressor(accel::makeTopKDecompressor());
    TransferHandler handler(fx.device, fx.layout, 64);
    for (const std::vector<uint32_t> &indices :
         {std::vector<uint32_t>{10, 200, 70},
          std::vector<uint32_t>{10, 70, 70}}) {
        compress::SparseGradient sparse;
        sparse.dense_size = 256;
        sparse.indices = indices;
        sparse.values = {1.0f, 2.0f, 3.0f};
        try {
            handler.runUpdateCompressed(sparse, 1, nullptr);
            ADD_FAILURE() << "unsorted sparse gradient was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("strictly ascend"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TransferHandler, MismatchedUpdaterStateCountIsFatal)
{
    // SGD updater (1 aux state) against an Adam-shaped shard (2 states).
    ShardLayout layout{128, 2};
    csd::Csd device("csd0", layout.totalBytes());
    device.installUpdater(accel::makeUpdater(
        optim::OptimizerKind::SgdMomentum, optim::Hyperparams{}));
    TransferHandler handler(device, layout, 64);
    EXPECT_THROW(handler.runUpdate(1, nullptr), std::runtime_error);
}

/** An Adam kernel that throws on its @p fail_at-th subgroup (0-based). */
class ThrowingUpdater final : public accel::UpdaterModule
{
  public:
    explicit ThrowingUpdater(std::size_t fail_at)
        : reference_(optim::OptimizerKind::Adam, optim::Hyperparams{}),
          fail_at_(fail_at)
    {
    }

    optim::OptimizerKind kind() const override { return reference_.kind(); }

    void
    processSubgroup(float *master, const float *grad, float *const *states,
                    std::size_t n, uint64_t step) const override
    {
        if (calls_++ == fail_at_)
            throw std::runtime_error("kernel fault");
        reference_.step(master, grad, states, n, step);
    }

    accel::ModuleFootprint footprint() const override { return {}; }
    BytesPerSec modelThroughput() const override { return 0.0; }

  private:
    optim::Optimizer reference_;
    std::size_t fail_at_;
    mutable std::size_t calls_ = 0;
};

TEST(TransferHandler, KernelExceptionReachesTheCaller)
{
    // A throwing kernel must surface as an exception on the caller.
    // Unwinding past a joinable std::thread terminates the process, so the
    // handler must stop and join its loader first. Subgroups are written
    // back in order, so exactly the ones before the fault are updated.
    const std::size_t n = 512, chunk = 64;
    for (std::size_t fail_at : {0, 1, 4, 7}) {
        SCOPED_TRACE(::testing::Message() << "fail_at=" << fail_at);
        Fixture fx(n);
        fx.device.installUpdater(std::make_unique<ThrowingUpdater>(fail_at));
        TransferHandler handler(fx.device, fx.layout, chunk);
        EXPECT_THROW(handler.runUpdate(1, nullptr), std::runtime_error);

        std::vector<float> master(n);
        fx.device.ssd().readFloats(master.data(), n,
                                   fx.layout.masterOffset());
        const auto want = hostReference(fx.init_params, fx.grads);
        const std::size_t done = fail_at * chunk;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(master[i], i < done ? want[i] : fx.init_params[i])
                << i;

        // The handler stays usable with a healthy kernel.
        fx.device.installUpdater(accel::makeUpdater(
            optim::OptimizerKind::Adam, optim::Hyperparams{}));
        handler.runUpdate(2, nullptr);
        EXPECT_EQ(fx.device.fpgaMemory().allocated(),
                  2 * 4 * chunk * sizeof(float));
    }
}

TEST(TransferHandler, LoaderExceptionReachesTheCaller)
{
    // An SSD read that fails on the loader side must also reach the
    // caller. The layout claims 2^62 + 512 elements: its
    // offsets wrap modulo 2^64 to those of the fixture's 512-element shard,
    // so the capacity check passes and subgroups 0-7 load real data, but
    // the dense-gradient read of subgroup 8 runs past the end of the SSD.
    // Which subgroups the handler wrote back before it stopped depends on
    // timing, so only the exception and reuse are checked.
    const std::size_t n = 512, chunk = 64;
    const ShardLayout wrapped{(std::size_t{1} << 62) + n, 2};
    Fixture fx(n);
    ASSERT_EQ(wrapped.gradOffset(), fx.layout.gradOffset());
    ASSERT_EQ(wrapped.totalBytes(), fx.layout.totalBytes());
    TransferHandler handler(fx.device, wrapped, chunk);
    const std::size_t allocated = fx.device.fpgaMemory().allocated();
    for (uint64_t step : {1, 2}) {
        try {
            handler.runUpdate(step, nullptr);
            ADD_FAILURE() << "step " << step << " did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("exceeds capacity"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(fx.device.fpgaMemory().allocated(), allocated);
}

/** Property: results are invariant to subgroup size (tasklet boundary). */
class HandlerChunking : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HandlerChunking, SubgroupSizeInvariant)
{
    Fixture fx(5000, 99);
    TransferHandler handler(fx.device, fx.layout, GetParam());
    std::vector<float> upstream(5000);
    handler.runUpdate(1, upstream.data());
    EXPECT_EQ(upstream, hostReference(fx.init_params, fx.grads));
}

INSTANTIATE_TEST_SUITE_P(Subgroups, HandlerChunking,
                         ::testing::Values(1, 17, 500, 5000, 10000));

} // namespace
} // namespace smartinf::train
