/** @file Tests for the functional block device. */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/block_device.h"

namespace smartinf::storage {
namespace {

TEST(BlockDevice, WriteThenReadRoundTrip)
{
    BlockDevice dev("ssd0", 4096);
    const char payload[] = "smart-infinity";
    dev.pwrite(payload, sizeof(payload), 100);
    char back[sizeof(payload)] = {};
    dev.pread(back, sizeof(payload), 100);
    EXPECT_STREQ(back, payload);
}

TEST(BlockDevice, FreshDeviceReadsZero)
{
    BlockDevice dev("ssd0", 64);
    std::vector<uint8_t> buf(64, 0xff);
    dev.pread(buf.data(), 64, 0);
    for (uint8_t b : buf)
        EXPECT_EQ(b, 0);
}

TEST(BlockDevice, FloatHelpers)
{
    BlockDevice dev("ssd0", 1024);
    const std::vector<float> vals{1.5f, -2.25f, 3.75f};
    dev.writeFloats(vals.data(), vals.size(), 16);
    std::vector<float> back(3, 0.0f);
    dev.readFloats(back.data(), 3, 16);
    EXPECT_EQ(back, vals);
}

TEST(BlockDevice, OutOfRangeReadIsFatal)
{
    BlockDevice dev("ssd0", 128);
    char buf[64];
    EXPECT_THROW(dev.pread(buf, 64, 100), std::runtime_error);
}

TEST(BlockDevice, OutOfRangeWriteIsFatal)
{
    BlockDevice dev("ssd0", 128);
    char buf[64] = {};
    EXPECT_THROW(dev.pwrite(buf, 64, 65), std::runtime_error);
}

TEST(BlockDevice, TrafficCountersTrackOps)
{
    BlockDevice dev("ssd0", 1024);
    char buf[100] = {};
    dev.pwrite(buf, 100, 0);
    dev.pread(buf, 50, 0);
    dev.pread(buf, 25, 0);
    EXPECT_DOUBLE_EQ(dev.bytesWritten(), 100.0);
    EXPECT_DOUBLE_EQ(dev.bytesRead(), 75.0);
    EXPECT_EQ(dev.writeOps(), 1u);
    EXPECT_EQ(dev.readOps(), 2u);
    dev.resetStats();
    EXPECT_EQ(dev.bytesRead(), 0.0);
    EXPECT_EQ(dev.readOps(), 0u);
}

} // namespace
} // namespace smartinf::storage
