#include "csd/device_memory.h"

#include <algorithm>

#include "common/logging.h"

namespace smartinf::csd {

DeviceBuffer::DeviceBuffer(DeviceMemory *pool, std::size_t size,
                           std::string tag)
    : pool_(pool), data_(new uint8_t[size]()), size_(size),
      tag_(std::move(tag))
{
}

DeviceBuffer::DeviceBuffer(DeviceBuffer &&other) noexcept
    : pool_(other.pool_), data_(std::move(other.data_)), size_(other.size_),
      tag_(std::move(other.tag_))
{
    other.pool_ = nullptr;
    other.size_ = 0;
}

DeviceBuffer &
DeviceBuffer::operator=(DeviceBuffer &&other) noexcept
{
    if (this != &other) {
        release();
        pool_ = other.pool_;
        data_ = std::move(other.data_);
        size_ = other.size_;
        tag_ = std::move(other.tag_);
        other.pool_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

DeviceBuffer::~DeviceBuffer()
{
    release();
}

void
DeviceBuffer::release()
{
    if (pool_ != nullptr && data_ != nullptr) {
        pool_->free(size_);
        data_.reset();
        pool_ = nullptr;
        size_ = 0;
    }
}

DeviceBuffer
DeviceMemory::allocate(std::size_t bytes, const std::string &tag)
{
    // Against the headroom, not allocated_ + bytes: that sum wraps for a
    // huge request and would let it through.
    if (bytes > capacity_ - allocated_) {
        fatal("FPGA device memory OOM allocating '", tag, "' (", bytes,
              " B): ", allocated_, " B of ", capacity_,
              " B already in use. The internal transfer handler exists to "
              "avoid exactly this (see Smart-Infinity paper, Section IV-B).");
    }
    // Count the bytes only once the buffer exists, so a host allocation
    // failure leaves the pool's accounting untouched.
    DeviceBuffer buffer(this, bytes, tag);
    allocated_ += bytes;
    peak_ = std::max(peak_, allocated_);
    return buffer;
}

bool
DeviceMemory::wouldFit(std::size_t bytes) const
{
    return bytes <= capacity_ - allocated_;
}

void
DeviceMemory::free(std::size_t bytes)
{
    SI_ASSERT(bytes <= allocated_, "device memory free underflow");
    allocated_ -= bytes;
}

} // namespace smartinf::csd
