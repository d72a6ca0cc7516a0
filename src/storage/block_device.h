/**
 * @file
 * Functional byte-addressable block device. This is the *contents* side of
 * an SSD: the Smart-Infinity data path (gradients, optimizer states, FP16
 * parameters) actually moves bytes through these devices in tests and
 * examples, with pread/pwrite semantics mirroring the Linux system calls the
 * paper uses for SmartSSD P2P transfers. A block device has no timing: the
 * SmartSSD's NVMe rates live in csd/smartssd.h, where the performance
 * layer's per-device links read them.
 */
#ifndef SMARTINF_STORAGE_BLOCK_DEVICE_H
#define SMARTINF_STORAGE_BLOCK_DEVICE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace smartinf::storage {

/** In-memory emulation of an NVMe namespace. */
class BlockDevice
{
  public:
    /**
     * @param name stable identifier for diagnostics
     * @param capacity device size in bytes (allocated lazily page-by-page is
     *        unnecessary here; experiments size devices to what they use)
     */
    BlockDevice(std::string name, std::size_t capacity);

    /** Read @p n bytes at @p offset into @p dst. Fatal on out-of-range. */
    void pread(void *dst, std::size_t n, std::size_t offset) const;

    /** Write @p n bytes from @p src at @p offset. Fatal on out-of-range. */
    void pwrite(const void *src, std::size_t n, std::size_t offset);

    /** Typed convenience overloads for float payloads. */
    void readFloats(float *dst, std::size_t count, std::size_t byte_offset) const;
    void writeFloats(const float *src, std::size_t count, std::size_t byte_offset);

    const std::string &name() const { return name_; }
    std::size_t capacity() const { return data_.size(); }

    /** Cumulative traffic counters. */
    double bytesRead() const { return bytes_read_.value(); }
    double bytesWritten() const { return bytes_written_.value(); }
    uint64_t readOps() const { return read_ops_; }
    uint64_t writeOps() const { return write_ops_; }
    void resetStats();

  private:
    void checkRange(std::size_t n, std::size_t offset, const char *op) const;

    std::string name_;
    std::vector<uint8_t> data_;
    mutable Counter bytes_read_;
    Counter bytes_written_;
    mutable uint64_t read_ops_ = 0;
    uint64_t write_ops_ = 0;
};

} // namespace smartinf::storage

#endif // SMARTINF_STORAGE_BLOCK_DEVICE_H
