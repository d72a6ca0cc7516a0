/**
 * @file
 * Closures as typed events, for tests. The simulator takes only typed
 * events (sim::Notify); a test that wants to react with a lambda parks it
 * here and passes the returned Notify wherever an event, a resource job's
 * completion, a flow's completion or a notify task takes one. Slots are
 * recycled when their closure runs, so the table holds the peak number of
 * closures parked at once, not the total ever parked.
 */
#ifndef SMARTINF_TESTS_CALLBACKS_H
#define SMARTINF_TESTS_CALLBACKS_H

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace smartinf::test {

/** A recycled table of parked closures (see file comment). */
class Callbacks final : public sim::Receiver
{
  public:
    /**
     * Park @p fn: the returned Notify runs it once and frees its slot. A
     * Notify that never fires keeps its slot. A null @p fn parks nothing
     * and returns a null Notify.
     */
    sim::Notify
    park(std::function<void()> fn)
    {
        if (!fn)
            return {};
        uint64_t slot = slots_.size();
        if (free_.empty()) {
            slots_.push_back(std::move(fn));
        } else {
            slot = free_.back();
            free_.pop_back();
            slots_[slot] = std::move(fn);
        }
        return {this, slot};
    }

    /** Slots allocated (== peak closures parked at once). */
    std::size_t slotsAllocated() const { return slots_.size(); }

    void
    onNotify(uint64_t slot) override
    {
        // Moved out and freed first, so the closure may park another.
        std::function<void()> fn = std::move(slots_[slot]);
        slots_[slot] = nullptr;
        free_.push_back(slot);
        fn();
    }

  private:
    std::vector<std::function<void()>> slots_;
    std::vector<uint64_t> free_;
};

} // namespace smartinf::test

#endif // SMARTINF_TESTS_CALLBACKS_H
