/** @file Tests for the FPGA device-memory allocator (OOM semantics). */
#include <gtest/gtest.h>

#include <cstdint>

#include "csd/device_memory.h"

namespace smartinf::csd {
namespace {

TEST(DeviceMemory, AllocationTracksUsage)
{
    DeviceMemory mem(1000);
    auto buf = mem.allocate(400, "a");
    EXPECT_EQ(mem.allocated(), 400u);
    EXPECT_EQ(mem.peakAllocated(), 400u);
    EXPECT_TRUE(buf.valid());
    EXPECT_EQ(buf.size(), 400u);
}

TEST(DeviceMemory, RaiiReleasesOnDestruction)
{
    DeviceMemory mem(1000);
    {
        auto buf = mem.allocate(600, "scoped");
        EXPECT_EQ(mem.allocated(), 600u);
    }
    EXPECT_EQ(mem.allocated(), 0u);
    EXPECT_EQ(mem.peakAllocated(), 600u); // Peak persists.
}

TEST(DeviceMemory, OverCapacityIsOom)
{
    DeviceMemory mem(1000);
    auto a = mem.allocate(700, "a");
    EXPECT_THROW(mem.allocate(400, "b"), std::runtime_error);
    // After the OOM, prior allocation is intact.
    EXPECT_EQ(mem.allocated(), 700u);
}

TEST(DeviceMemory, HugeRequestIsOomWithoutWrapping)
{
    // allocated + bytes wraps past SIZE_MAX for this request; the check
    // must still refuse it and leave the pool's count alone.
    DeviceMemory mem(1024);
    auto held = mem.allocate(16, "held");
    const std::size_t huge = SIZE_MAX - 15;
    EXPECT_FALSE(mem.wouldFit(huge));
    EXPECT_THROW(mem.allocate(huge, "huge"), std::runtime_error);
    EXPECT_EQ(mem.allocated(), 16u);
    EXPECT_EQ(mem.peakAllocated(), 16u);
    held.release();
    EXPECT_EQ(mem.allocated(), 0u);
}

TEST(DeviceMemory, WouldFitProbe)
{
    DeviceMemory mem(1000);
    auto a = mem.allocate(900, "a");
    EXPECT_TRUE(mem.wouldFit(100));
    EXPECT_FALSE(mem.wouldFit(101));
}

TEST(DeviceMemory, ExplicitRelease)
{
    DeviceMemory mem(1000);
    auto a = mem.allocate(500, "a");
    a.release();
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(mem.allocated(), 0u);
    a.release(); // Idempotent.
    EXPECT_EQ(mem.allocated(), 0u);
}

TEST(DeviceMemory, MoveTransfersOwnership)
{
    DeviceMemory mem(1000);
    auto a = mem.allocate(300, "a");
    DeviceBuffer b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(mem.allocated(), 300u);
    b.release();
    EXPECT_EQ(mem.allocated(), 0u);
}

TEST(DeviceMemory, BufferIsZeroInitialized)
{
    DeviceMemory mem(64);
    auto buf = mem.allocate(64, "z");
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(buf.data()[i], 0);
}

TEST(DeviceMemory, FloatsViewAliasesBytes)
{
    DeviceMemory mem(64);
    auto buf = mem.allocate(16, "f");
    buf.floats()[0] = 2.5f;
    EXPECT_EQ(buf.floats()[0], 2.5f);
}

/** The paper's motivating failure: naive double-buffering OOMs the 4 GB
 *  DRAM while pre-allocation with buffer reuse stays within budget. */
TEST(DeviceMemory, NaiveDoubleBufferingOverflowsScaledBudget)
{
    // Scaled-down device: 1 MB of "DRAM", subgroups of 400 KB per variable
    // set (4 variables x 100 KB).
    DeviceMemory mem(1 << 20);
    const std::size_t per_var = 100 << 10;
    std::vector<DeviceBuffer> first;
    for (int v = 0; v < 4; ++v)
        first.push_back(mem.allocate(per_var, "sg0.var"));
    // Pre-allocated double buffers (8 x 80 KB = 640 KB) fit...
    std::vector<DeviceBuffer> second;
    for (int v = 0; v < 4; ++v)
        second.push_back(mem.allocate(per_var, "sg1.var"));
    // ...but a third concurrent set (naive unbounded overlap) OOMs.
    EXPECT_THROW(mem.allocate(4 * per_var, "sg2.all"), std::runtime_error);
}

} // namespace
} // namespace smartinf::csd
