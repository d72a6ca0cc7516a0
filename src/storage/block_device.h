/**
 * @file
 * Functional byte-addressable block device. This is the *contents* side of
 * an SSD: the Smart-Infinity data path (gradients, optimizer states, FP16
 * parameters) actually moves bytes through these devices in tests and
 * examples, with pread/pwrite semantics mirroring the Linux system calls the
 * paper uses for SmartSSD P2P transfers. A block device has no timing: the
 * SmartSSD's NVMe rates live in csd/smartssd.h, where the performance
 * layer's per-device links read them.
 *
 * The capacity comes from calloc, not a zero-filled vector: a fresh
 * allocation of a device's size is an anonymous mapping the kernel commits
 * page by page on first write, and a reused block is memory the process
 * already holds. Never-written bytes read as zero either way, so a shard
 * region a dataflow never touches (the dense-gradient region under
 * SmartComp) costs no new memory.
 */
#ifndef SMARTINF_STORAGE_BLOCK_DEVICE_H
#define SMARTINF_STORAGE_BLOCK_DEVICE_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/stats.h"

namespace smartinf::storage {

/** In-memory emulation of an NVMe namespace. */
class BlockDevice
{
  public:
    /**
     * @param name stable identifier for diagnostics
     * @param capacity addressable bytes; they cost new host memory only
     *        where written (0 is a valid, empty device)
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
    std::size_t capacity() const { return capacity_; }

    /** Cumulative traffic counters. */
    double bytesRead() const { return bytes_read_.value(); }
    double bytesWritten() const { return bytes_written_.value(); }
    uint64_t readOps() const { return read_ops_; }
    uint64_t writeOps() const { return write_ops_; }
    void resetStats();

  private:
    struct FreeBytes {
        void operator()(uint8_t *p) const { std::free(p); }
    };

    void checkRange(std::size_t n, std::size_t offset, const char *op) const;

    std::string name_;
    std::size_t capacity_;
    std::unique_ptr<uint8_t[], FreeBytes> data_; ///< null when capacity_ is 0
    mutable Counter bytes_read_;
    Counter bytes_written_;
    mutable uint64_t read_ops_ = 0;
    uint64_t write_ops_ = 0;
};

} // namespace smartinf::storage

#endif // SMARTINF_STORAGE_BLOCK_DEVICE_H
