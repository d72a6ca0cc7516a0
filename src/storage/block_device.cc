#include "storage/block_device.h"

#include <cstdlib>
#include <cstring>
#include <new>

#include "common/logging.h"

namespace smartinf::storage {

BlockDevice::BlockDevice(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity)
{
    if (capacity_ == 0)
        return; // calloc(0) may return null or not; an empty device holds none
    data_.reset(static_cast<uint8_t *>(std::calloc(capacity_, 1)));
    if (!data_)
        throw std::bad_alloc();
}

void
BlockDevice::checkRange(std::size_t n, std::size_t offset, const char *op) const
{
    if (offset + n > capacity_ || offset + n < offset) {
        fatal("block device ", name_, ": ", op, " of ", n, " bytes at offset ",
              offset, " exceeds capacity ", capacity_);
    }
}

void
BlockDevice::pread(void *dst, std::size_t n, std::size_t offset) const
{
    checkRange(n, offset, "pread");
    if (n > 0) // memcpy takes no null pointer, even for zero bytes
        std::memcpy(dst, data_.get() + offset, n);
    bytes_read_.add(static_cast<double>(n));
    ++read_ops_;
}

void
BlockDevice::pwrite(const void *src, std::size_t n, std::size_t offset)
{
    checkRange(n, offset, "pwrite");
    if (n > 0)
        std::memcpy(data_.get() + offset, src, n);
    bytes_written_.add(static_cast<double>(n));
    ++write_ops_;
}

void
BlockDevice::readFloats(float *dst, std::size_t count,
                        std::size_t byte_offset) const
{
    pread(dst, count * sizeof(float), byte_offset);
}

void
BlockDevice::writeFloats(const float *src, std::size_t count,
                         std::size_t byte_offset)
{
    pwrite(src, count * sizeof(float), byte_offset);
}

void
BlockDevice::resetStats()
{
    bytes_read_.reset();
    bytes_written_.reset();
    read_ops_ = 0;
    write_ops_ = 0;
}

} // namespace smartinf::storage
