/** @file Tests for the functional block device. */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <stdexcept>
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

TEST(BlockDevice, EmptyDeviceAcceptsZeroLengthAccess)
{
    // An empty device has no backing at all; a zero-length access must
    // not hand memcpy its null pointer.
    BlockDevice dev("empty", 0);
    EXPECT_EQ(dev.capacity(), 0u);
    char buf[8] = {};
    dev.pread(buf, 0, 0);
    dev.pwrite(buf, 0, 0);
    EXPECT_EQ(dev.readOps(), 1u);
    EXPECT_EQ(dev.writeOps(), 1u);
    EXPECT_EQ(dev.bytesRead(), 0.0);
    EXPECT_THROW(dev.pread(buf, 1, 0), std::runtime_error);
    EXPECT_THROW(dev.pwrite(buf, 0, 1), std::runtime_error);
}

/** Resident set size of this process in bytes (/proc/self/statm). */
std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(BlockDevice, UnwrittenCapacityCostsNoResidentMemory)
{
    constexpr std::size_t kGiB = std::size_t{1} << 30;
    constexpr std::size_t kPage = 4096;
    const std::size_t ceiling = residentBytes() + (std::size_t{32} << 20);
    BlockDevice dev("big", kGiB);
    EXPECT_LT(residentBytes(), ceiling);

    std::vector<uint8_t> page(kPage), back(kPage, 0);
    for (std::size_t i = 0; i < kPage; ++i)
        page[i] = static_cast<uint8_t>(i * 7 + 1);
    dev.pwrite(page.data(), kPage, kGiB - 2 * kPage);
    dev.pread(back.data(), kPage, kGiB - 2 * kPage);
    EXPECT_EQ(back, page);

    std::vector<uint8_t> unwritten(kPage, 0xff);
    dev.pread(unwritten.data(), kPage, kGiB / 2);
    EXPECT_EQ(unwritten, std::vector<uint8_t>(kPage, 0));
    EXPECT_LT(residentBytes(), ceiling);
}

} // namespace
} // namespace smartinf::storage
