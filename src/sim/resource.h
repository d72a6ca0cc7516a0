/**
 * @file
 * Serial compute resources with FIFO queueing. A Resource models a device
 * that processes work at a fixed rate (a GPU executing kernels, the CPU's
 * AVX update loop, an FPGA kernel): jobs submitted while busy wait in order.
 */
#ifndef SMARTINF_SIM_RESOURCE_H
#define SMARTINF_SIM_RESOURCE_H

#include <string>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace smartinf::sim {

/**
 * A serial processing resource. Work is expressed in abstract units (flops,
 * bytes) consumed at @c rate units/second; each job may also carry a fixed
 * startup latency (kernel launch, syscall).
 */
class Resource : private Receiver
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

    /** Enqueue @p work units; @p done fires when the job completes (a
     *  null @p done completes silently). */
    void submit(double work, Notify done);

    /** True when no job is running or queued. */
    bool idle() const { return !busy_ && head_ == queue_.size(); }

    const std::string &name() const { return name_; }
    double rate() const { return rate_; }

  private:
    struct Job {
        double work;
        Notify done;
    };

    void startNext();
    /** The running job finished: account it, start the next, then fire
     *  its completion. */
    void onNotify(uint64_t) override;

    Simulator &sim_;
    std::string name_;
    double rate_;
    Seconds job_latency_;
    /** Waiting jobs, oldest at head_. A vector keeps its capacity, so a
     *  steady stream of jobs allocates nothing (a deque allocates a chunk
     *  every few jobs); startNext() reclaims the taken prefix. */
    std::vector<Job> queue_;
    std::size_t head_ = 0;
    /** Reserved up front, so a short queue never grows in the event loop
     *  (a deque's first chunk held 21 jobs). */
    static constexpr std::size_t kInitialJobs = 16;
    static constexpr std::size_t kReclaimAt = 1024;
    /** The one job in service; its finish event names only the resource. */
    Job running_{0.0, {}};
    bool busy_ = false;
};

} // namespace smartinf::sim

#endif // SMARTINF_SIM_RESOURCE_H
