#include "sim/event_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace smartinf::sim {

void
EventQueue::schedule(Seconds when, Notify what)
{
    SI_ASSERT(when >= 0.0, "event scheduled at negative time ", when);
    SI_ASSERT(what, "event scheduled without a receiver");
    heap_.push_back(Entry{when, next_seq_++, what});
    std::push_heap(heap_.begin(), heap_.end(), EntryLater{});
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
EventQueue::arm(Seconds when, Notify what)
{
    SI_ASSERT(when >= 0.0, "alarm armed at negative time ", when);
    alarm_ = Entry{when, next_seq_++, what};
    alarm_armed_ = true;
}

bool
EventQueue::runNext(Seconds &now)
{
    Entry entry;
    if (alarm_armed_ &&
        (heap_.empty() || EntryLater{}(heap_.front(), alarm_))) {
        // Disarmed first so the receiver may re-arm the alarm.
        alarm_armed_ = false;
        entry = alarm_;
    } else if (!heap_.empty()) {
        entry = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), EntryLater{});
        heap_.pop_back();
    } else {
        return false;
    }
    SI_ASSERT(entry.when >= now, "event time ", entry.when, " precedes now ",
              now);
    now = entry.when;
    entry.what();
    return true;
}

} // namespace smartinf::sim
