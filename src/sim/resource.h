/**
 * @file
 * Serial compute resources with FIFO queueing. A Resource models a device
 * that processes work at a fixed rate (a GPU executing kernels, the CPU's
 * AVX update loop, an FPGA kernel): jobs submitted while busy wait in order.
 */
#ifndef SMARTINF_SIM_RESOURCE_H
#define SMARTINF_SIM_RESOURCE_H

#include <deque>
#include <functional>
#include <string>

#include "common/stats.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace smartinf::sim {

/**
 * A serial processing resource. Work is expressed in abstract units (flops,
 * bytes) consumed at @c rate units/second; each job may also carry a fixed
 * startup latency (kernel launch, syscall).
 */
class Resource
{
  public:
    /**
     * @param sim owning simulator
     * @param name stable identifier used in stats
     * @param rate processing rate in work units per second
     * @param job_latency fixed per-job overhead in seconds
     */
    Resource(Simulator &sim, std::string name, double rate,
             Seconds job_latency = 0.0);

    /** Enqueue @p work units; @p done fires when the job completes. */
    void submit(double work, std::function<void()> done);

    /** True when no job is running or queued. */
    bool idle() const { return !busy_ && queue_.empty(); }

    const std::string &name() const { return name_; }
    double rate() const { return rate_; }

    /** Total work units processed. */
    double workDone() const { return work_done_.value(); }
    /** Total seconds the resource was busy (for utilization). */
    Seconds busyTime() const { return busy_time_.value(); }
    /** Number of completed jobs. */
    uint64_t jobsDone() const { return jobs_done_; }

  private:
    struct Job {
        double work;
        std::function<void()> done;
    };

    void startNext();
    /** Account the running job, start the next, then run its callback. */
    void finishRunning(Seconds duration);

    Simulator &sim_;
    std::string name_;
    double rate_;
    Seconds job_latency_;
    std::deque<Job> queue_;
    /** The one job in service. Kept here, not in the completion event's
     *  closure, so that closure fits std::function's inline buffer. */
    Job running_{0.0, nullptr};
    bool busy_ = false;
    Counter work_done_;
    Counter busy_time_;
    uint64_t jobs_done_ = 0;
};

} // namespace smartinf::sim

#endif // SMARTINF_SIM_RESOURCE_H
