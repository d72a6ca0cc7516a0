/**
 * @file
 * The Simulator owns the event queue and the simulated clock, and provides
 * the run loop every timing experiment drives.
 */
#ifndef SMARTINF_SIM_SIMULATOR_H
#define SMARTINF_SIM_SIMULATOR_H

#include <functional>

#include "sim/event_queue.h"

namespace smartinf::sim {

class SimObserver;

/** Central simulation context: clock + event queue. */
class Simulator
{
  public:
    /**
     * Attach/detach a passive observer (see sim/observer.h); the task
     * graph and resources built on this simulator report through it.
     * Observers add no events and never perturb the schedule.
     */
    void setObserver(SimObserver *observer) { observer_ = observer; }
    SimObserver *observer() const { return observer_; }

    /** Current simulated time in seconds. */
    Seconds now() const { return now_; }

    /** Schedule a typed event @p delay seconds from now. */
    void
    after(Seconds delay, Notify what)
    {
        queue_.schedule(now_ + delay, what);
    }

    /** Schedule a typed event at absolute time @p when (>= now). */
    void
    at(Seconds when, Notify what)
    {
        queue_.schedule(when, what);
    }

    /** Run until no events remain. @return final simulated time. */
    Seconds run();

    /** Run until @p predicate returns true or the queue drains. */
    Seconds runUntil(const std::function<bool()> &predicate);

    /** Number of events executed so far (determinism/regression checks). */
    uint64_t eventsExecuted() const { return events_executed_; }

    EventQueue &queue() { return queue_; }

  private:
    EventQueue queue_;
    SimObserver *observer_ = nullptr;
    Seconds now_ = 0.0;
    uint64_t events_executed_ = 0;
};

} // namespace smartinf::sim

#endif // SMARTINF_SIM_SIMULATOR_H
