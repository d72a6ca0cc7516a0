/**
 * @file
 * The shared-prefix cache: requests carrying the same `prefix_id` (a
 * shared system prompt) map their common leading prompt tokens to one
 * refcounted set of KV pages instead of re-prefilling them. Pure
 * bookkeeping — entries, refcounts, LRU order, hit/miss statistics; page
 * allocation and byte accounting stay in KvSpace, which owns both this
 * cache and the BlockAllocator.
 *
 * Lifecycle of one entry:
 *  - miss: the first request with a prefix_id inserts the entry (ref 1)
 *    and *produces* the prefix KV during its own prefill;
 *  - hit: later requests acquire() it (ref + 1) and skip the shared
 *    tokens' prefill compute and KV writes entirely;
 *  - release() on retirement drops the ref; the entry *stays cached* at
 *    ref 0 (that is the whole point — the next request hits it);
 *  - eviction happens only at refcount 0, coldest entry first, where
 *    "coldest" is least-recently-used by *simulated* time: every
 *    acquire/insert/release stamps a monotonic use tick drawn inside
 *    deterministic event callbacks, so the eviction order is a pure
 *    function of the request stream (bit-identical across repeats).
 */
#ifndef SMARTINF_KV_PREFIX_CACHE_H
#define SMARTINF_KV_PREFIX_CACHE_H

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "kv/block_allocator.h"

namespace smartinf::kv {

/** Refcounted shared-prefix bookkeeping (see file comment). */
class PrefixCache
{
  public:
    /** One cached shared prefix. */
    struct Entry {
        int tokens = 0; ///< prefix length the pages hold (fixed at insert)
        std::vector<BlockId> blocks; ///< ceil(tokens / block_tokens) pages
        int refcount = 0;            ///< admitted requests mapping it
        std::uint64_t last_use = 0;  ///< monotonic sim-order use tick
    };

    /**
     * Look the prefix up. Hit: bumps the refcount + use tick, counts a
     * hit, returns the entry. Miss: counts a miss, returns nullptr — the
     * caller inserts via insert() and becomes the producing request.
     */
    const Entry *acquire(int prefix_id);

    /** Register a new entry (ref 1, the inserting request's). The pages
     *  were just allocated by the caller; this cache owns them until
     *  eviction returns them. */
    const Entry *insert(int prefix_id, int tokens,
                        std::vector<BlockId> blocks);

    /** Drop one reference (request retirement). The entry stays cached. */
    void release(int prefix_id);

    /**
     * Evict the least-recently-used refcount-0 entry and hand its pages
     * back to the caller to free. nullopt when every entry is pinned (or
     * the cache is empty) — the caller then extends the arena instead.
     */
    std::optional<std::vector<BlockId>> evictLru();

    /** Cached entries (any refcount). */
    int entryCount() const { return static_cast<int>(entries_.size()); }
    /** All cached entries, keyed by prefix_id (gauges, tests). */
    const std::map<int, Entry> &entries() const { return entries_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    /** hits / (hits + misses); 1.0 before any lookup. */
    double hitRate() const;

  private:
    std::map<int, Entry> entries_; ///< ordered => deterministic iteration
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace smartinf::kv

#endif // SMARTINF_KV_PREFIX_CACHE_H
