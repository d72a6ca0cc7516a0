#include "kv/block_allocator.h"

#include <algorithm>

#include "common/logging.h"

namespace smartinf::kv {

BlockId
BlockAllocator::allocate()
{
    BlockId slot;
    if (!free_.empty()) {
        slot = *free_.begin();
        free_.erase(free_.begin());
    } else {
        slot = span_++;
    }
    ++used_;
    peak_used_ = std::max(peak_used_, used_);
    peak_span_ = std::max(peak_span_, span_);
    return slot;
}

void
BlockAllocator::free(BlockId block)
{
    SI_ASSERT(block >= 0 && block < span_, "freeing a slot outside the span");
    const bool inserted = free_.insert(block).second;
    SI_ASSERT(inserted, "double free of a KV block");
    --used_;
    ++frees_;
    // Trim trailing holes so a drained arena returns to span 0 and the
    // next allocation wave restarts at slot 0 (contiguous-equivalence
    // anchor for serial workloads).
    while (span_ > 0) {
        auto it = free_.find(span_ - 1);
        if (it == free_.end())
            break;
        free_.erase(it);
        --span_;
    }
    // Fragmentation peaks right here: frees open holes (span fixed, used
    // down), allocations only close them.
    if (used_ > 0)
        peak_frag_ = std::max(peak_frag_, static_cast<double>(span_) /
                                              static_cast<double>(used_));
}

double
BlockAllocator::fragmentationRatio() const
{
    if (used_ == 0)
        return 1.0;
    return static_cast<double>(span_) / static_cast<double>(used_);
}

} // namespace smartinf::kv
