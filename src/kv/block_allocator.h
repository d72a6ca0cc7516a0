/**
 * @file
 * The paged KV-cache block allocator (vLLM-style): the KV arena is an
 * array of fixed-size pages ("blocks", `block_tokens` tokens each) indexed
 * by slot position, and the allocator hands out slots with free-list
 * reuse. Slot position *is* tier position — a slot's byte range
 * `[slot * block_bytes, (slot+1) * block_bytes)` overlaps the strict
 * HBM → host → CSD tier order exactly like the contiguous layout's byte
 * offsets did — so retirement holes near the front of the arena are real,
 * reusable HBM capacity, and fragmentation (live pages pushed to high
 * slots past holes the current allocation cannot use) is a measurable
 * spill cost instead of an invisible watermark.
 *
 * Determinism contract: allocation is *stable* — the lowest free slot is
 * always taken first (std::set keeps the free list ordered), and the span
 * only grows when the free list is empty. Callers allocate in request-id /
 * admission order from deterministic event callbacks, so repeated runs
 * produce bit-identical block tables. No randomness, no pointer-keyed
 * containers.
 */
#ifndef SMARTINF_KV_BLOCK_ALLOCATOR_H
#define SMARTINF_KV_BLOCK_ALLOCATOR_H

#include <cstdint>
#include <set>

namespace smartinf::kv {

/** Index of one fixed-size KV page (slot position in the arena). */
using BlockId = int;

/** Deterministic free-list page allocator (see file comment). */
class BlockAllocator
{
  public:
    /** Take the lowest free slot, extending the arena span only when no
     *  freed slot is available. */
    BlockId allocate();

    /** Return @p block to the free list. Trailing free slots shrink the
     *  span, so a drained allocator is byte-identical to a fresh one. */
    void free(BlockId block);

    /** True when allocate() would reuse a freed slot (no span growth). */
    bool hasFreeSlot() const { return !free_.empty(); }

    /** Live (allocated, not freed) blocks. */
    int usedBlocks() const { return used_; }
    /** Arena extent in blocks: highest ever-live slot + 1, minus trailing
     *  trimmed frees. Span − used = holes (internal fragmentation). */
    int spanBlocks() const { return span_; }
    /** Free slots inside the span (the holes). */
    int freeBlocksInSpan() const { return span_ - used_; }

    /** Largest simultaneous live-block count seen. */
    int peakUsedBlocks() const { return peak_used_; }
    /** Largest span seen — the arena footprint a contiguous layout of the
     *  same live set would *not* have needed beyond peakUsedBlocks(). */
    int peakSpanBlocks() const { return peak_span_; }
    /**
     * Largest span / used ratio seen while blocks were live. Note peak
     * span and peak used alone cannot measure fragmentation: the span
     * only grows when the free list is empty (arena full, span == used),
     * so their peaks always nearly agree — holes show up in the *ratio*
     * while requests retire out of order, which is what this tracks.
     */
    double peakFragmentation() const { return peak_frag_; }

    /**
     * Current span / used ratio (1.0 = perfectly compact, > 1.0 means
     * holes are pushing live pages toward deeper tiers). 1.0 when empty.
     */
    double fragmentationRatio() const;

    std::uint64_t frees() const { return frees_; }

  private:
    std::set<BlockId> free_; ///< ordered => lowest-slot-first reuse
    int span_ = 0;
    int used_ = 0;
    int peak_span_ = 0;
    int peak_used_ = 0;
    double peak_frag_ = 1.0;
    std::uint64_t frees_ = 0;
};

} // namespace smartinf::kv

#endif // SMARTINF_KV_BLOCK_ALLOCATOR_H
