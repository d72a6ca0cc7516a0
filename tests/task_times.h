/**
 * @file
 * Task start and finish times, for tests. The task graph keeps no per-task
 * times; a test that checks when a task ran attaches a TaskTimes to the
 * simulator and reads them here. Times are kept by task id, so one graph
 * per simulator is read through it.
 */
#ifndef SMARTINF_TESTS_TASK_TIMES_H
#define SMARTINF_TESTS_TASK_TIMES_H

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/observer.h"
#include "sim/simulator.h"

namespace smartinf::test {

/** Records when each task launched and completed (see file comment). */
class TaskTimes final : public sim::SimObserver
{
  public:
    /** Attach to @p sim, which must not run once this is destroyed. */
    explicit TaskTimes(sim::Simulator &sim) { sim.setObserver(this); }

    /** When task @p id launched. @throws std::logic_error if it has not. */
    Seconds start(std::size_t id) const { return read(start_, id); }
    /** When task @p id completed. @throws std::logic_error if it has not. */
    Seconds finish(std::size_t id) const { return read(finish_, id); }

    void
    taskStarted(std::size_t id, const sim::TaskLabel &, Seconds now) override
    {
        record(start_, id, now);
    }
    void
    taskFinished(std::size_t id, const sim::TaskLabel &, Seconds now) override
    {
        record(finish_, id, now);
    }

  private:
    static void
    record(std::vector<Seconds> &times, std::size_t id, Seconds now)
    {
        if (times.size() <= id)
            times.resize(id + 1, kNever);
        times[id] = now;
    }
    static Seconds
    read(const std::vector<Seconds> &times, std::size_t id)
    {
        if (id >= times.size() || times[id] == kNever)
            throw std::logic_error("no time recorded for task " +
                                   std::to_string(id));
        return times[id];
    }

    static constexpr Seconds kNever = -1.0;
    std::vector<Seconds> start_;
    std::vector<Seconds> finish_;
};

} // namespace smartinf::test

#endif // SMARTINF_TESTS_TASK_TIMES_H
