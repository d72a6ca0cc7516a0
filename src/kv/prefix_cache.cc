#include "kv/prefix_cache.h"

#include <utility>

#include "common/logging.h"

namespace smartinf::kv {

const PrefixCache::Entry *
PrefixCache::acquire(int prefix_id)
{
    auto it = entries_.find(prefix_id);
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    it->second.refcount += 1;
    it->second.last_use = ++tick_;
    return &it->second;
}

const PrefixCache::Entry *
PrefixCache::insert(int prefix_id, int tokens, std::vector<BlockId> blocks)
{
    SI_ASSERT(tokens > 0, "inserting an empty prefix");
    Entry entry;
    entry.tokens = tokens;
    entry.blocks = std::move(blocks);
    entry.refcount = 1;
    entry.last_use = ++tick_;
    auto [it, inserted] = entries_.emplace(prefix_id, std::move(entry));
    SI_ASSERT(inserted, "prefix inserted twice");
    return &it->second;
}

void
PrefixCache::release(int prefix_id)
{
    auto it = entries_.find(prefix_id);
    SI_ASSERT(it != entries_.end(), "releasing an unknown prefix");
    SI_ASSERT(it->second.refcount > 0, "refcount underflow");
    it->second.refcount -= 1;
    it->second.last_use = ++tick_;
}

std::optional<std::vector<BlockId>>
PrefixCache::evictLru()
{
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.refcount > 0)
            continue; // pinned by an admitted request
        if (victim == entries_.end() ||
            it->second.last_use < victim->second.last_use)
            victim = it;
    }
    if (victim == entries_.end())
        return std::nullopt;
    std::vector<BlockId> blocks = std::move(victim->second.blocks);
    entries_.erase(victim);
    ++evictions_;
    return blocks;
}

double
PrefixCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 1.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

} // namespace smartinf::kv
