/**
 * @file
 * The discrete-event core: a time-ordered queue of events. Ties are broken
 * by insertion order so simulations are fully deterministic.
 *
 * An event is typed: it names a Receiver and one integer for it (a task id,
 * a flow slot, a workload's encoded timer), so every event — resource
 * finishes, delay tasks, flow latency expiries, the flow network's alarm
 * and the workloads' own timers — is a 32-byte POD and no closure. A
 * receiver that needs more than one integer of payload keeps the rest in a
 * table of its own and sends the index. Scheduled events always run;
 * nothing is cancelled.
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
#include <vector>

#include "common/units.h"

namespace smartinf::sim {

/** The target of typed events and completions (see Notify). */
class Receiver
{
  public:
    /** A Notify naming this receiver and @p arg fired. */
    virtual void onNotify(uint64_t arg) = 0;

  protected:
    ~Receiver() = default;
};

/**
 * A deferred call by value: receiver and integer. A Resource job and a
 * flow slot store one to name whoever waits for them (a task graph and the
 * task's id), a notify task stores the one it fires, and the event queue
 * stores one per event.
 */
struct Notify {
    Receiver *to = nullptr;
    uint64_t arg = 0;

    explicit operator bool() const { return to != nullptr; }
    void operator()() const { to->onNotify(arg); }
};

/** A priority queue of (time, sequence, Notify) events plus one alarm. */
class EventQueue
{
  public:
    /** Schedule @p what at absolute time @p when. */
    void schedule(Seconds when, Notify what);

    /** Take ownership of the alarm. Fatal if another owner holds it. */
    void claimAlarm();

    /** (Re)arm the alarm to fire @p what at @p when, dropping any armed
     *  one. */
    void arm(Seconds when, Notify what);

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

    /** Heap entries currently stored (the alarm is never in the heap). */
    std::size_t heapSize() const { return heap_.size(); }

  private:
    struct Entry {
        Seconds when;
        uint64_t seq; ///< FIFO among simultaneous events
        Notify what;
    };
    /** std::push_heap builds a max-heap; invert (when, seq) for min-first. */
    struct EntryLater {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq; // FIFO among simultaneous events.
        }
    };

    std::vector<Entry> heap_; ///< min-heap on (when, seq)
    uint64_t next_seq_ = 0;
    Entry alarm_{0.0, 0, {}};
    bool alarm_armed_ = false;
    bool alarm_claimed_ = false;
};

} // namespace smartinf::sim

#endif // SMARTINF_SIM_EVENT_QUEUE_H
