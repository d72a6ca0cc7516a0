/**
 * @file
 * The discrete-event core: a time-ordered queue of callbacks. Ties are broken
 * by insertion order so simulations are fully deterministic.
 *
 * Storage is allocation-light: heap entries are 24-byte PODs ordered on
 * (time, sequence); callbacks live in a recycled slot store, so memory is
 * bounded by the peak number of outstanding events rather than the total
 * ever scheduled. Scheduled events always run; nothing is cancelled.
 *
 * Beside the heap the queue keeps one re-armable alarm, the flow network's
 * next-completion event. arm() overwrites the alarm's (time, sequence) in
 * place and draws its sequence number exactly as schedule() does, so an
 * alarm re-armed after other events were scheduled runs after those of them
 * that share its time. runNext() runs whichever of the heap top and the
 * alarm comes first on (time, sequence). One owner claims the alarm for the
 * queue's lifetime.
 */
#ifndef SMARTINF_SIM_EVENT_QUEUE_H
#define SMARTINF_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"

namespace smartinf::sim {

/** A priority queue of (time, sequence, callback) events plus one alarm. */
class EventQueue
{
  public:
    /** Schedule @p fn at absolute time @p when. */
    void schedule(Seconds when, std::function<void()> fn);

    /** Take ownership of the alarm. Fatal if another owner holds it. */
    void claimAlarm();

    /** (Re)arm the alarm to run @p fn at @p when, replacing any armed one. */
    void arm(Seconds when, std::function<void()> fn);

    /** Drop the armed alarm, if any. */
    void disarm() { alarm_armed_ = false; }

    /** True when the alarm is armed for exactly @p when. */
    bool armedAt(Seconds when) const
    {
        return alarm_armed_ && alarm_.when == when;
    }

    /** True when no event is queued and the alarm is not armed. */
    bool empty() const { return heap_.empty() && !alarm_armed_; }

    /** Number of outstanding events, the armed alarm included. */
    std::size_t size() const { return heap_.size() + (alarm_armed_ ? 1 : 0); }

    /**
     * Pop and run the earliest event (or the alarm), advancing @p now to its
     * time. @return false when nothing was outstanding.
     */
    bool runNext(Seconds &now);

    /** Callback slots allocated (== peak outstanding events, not the total
     *  ever scheduled) — memory-bound introspection for tests. */
    std::size_t slotsAllocated() const { return slots_.size(); }

    /** Heap entries currently stored (the alarm is never in the heap). */
    std::size_t heapSize() const { return heap_.size(); }

  private:
    struct Entry {
        Seconds when;
        uint64_t seq; ///< FIFO among simultaneous events
        uint32_t slot;
    };
    /** std::push_heap builds a max-heap; invert (when, seq) for min-first. */
    static bool entryLater(const Entry &a, const Entry &b);

    std::vector<Entry> heap_; ///< min-heap on (when, seq)
    std::vector<std::function<void()>> slots_;
    std::vector<uint32_t> free_;
    uint64_t next_seq_ = 0;
    Entry alarm_{0.0, 0, 0}; ///< slot unused
    std::function<void()> alarm_fn_;
    bool alarm_armed_ = false;
    bool alarm_claimed_ = false;
};

} // namespace smartinf::sim

#endif // SMARTINF_SIM_EVENT_QUEUE_H
