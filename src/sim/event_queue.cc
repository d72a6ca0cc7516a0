#include "sim/event_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace smartinf::sim {

bool
EventQueue::entryLater(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq; // FIFO among simultaneous events.
}

void
EventQueue::schedule(Seconds when, std::function<void()> fn)
{
    SI_ASSERT(when >= 0.0, "event scheduled at negative time ", when);
    uint32_t slot = static_cast<uint32_t>(slots_.size());
    if (free_.empty()) {
        slots_.push_back(std::move(fn));
    } else {
        slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(fn);
    }
    heap_.push_back(Entry{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), entryLater);
}

void
EventQueue::claimAlarm()
{
    SI_REQUIRE(!alarm_claimed_,
               "the event queue's alarm already has an owner (one "
               "FlowNetwork per Simulator)");
    alarm_claimed_ = true;
}

void
EventQueue::arm(Seconds when, std::function<void()> fn)
{
    SI_ASSERT(when >= 0.0, "alarm armed at negative time ", when);
    alarm_ = Entry{when, next_seq_++, 0};
    alarm_fn_ = std::move(fn);
    alarm_armed_ = true;
}

bool
EventQueue::runNext(Seconds &now)
{
    std::function<void()> fn;
    Seconds when = 0.0;
    if (alarm_armed_ &&
        (heap_.empty() || entryLater(heap_.front(), alarm_))) {
        // Moved out so the callback may re-arm the alarm while it runs.
        alarm_armed_ = false;
        when = alarm_.when;
        fn = std::move(alarm_fn_);
    } else if (!heap_.empty()) {
        const Entry entry = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), entryLater);
        heap_.pop_back();
        when = entry.when;
        fn = std::move(slots_[entry.slot]);
        slots_[entry.slot] = nullptr;
        free_.push_back(entry.slot);
    } else {
        return false;
    }
    SI_ASSERT(when >= now, "event time ", when, " precedes now ", now);
    now = when;
    fn();
    return true;
}

} // namespace smartinf::sim
