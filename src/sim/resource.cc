#include "sim/resource.h"

#include "common/logging.h"
#include "sim/observer.h"

namespace smartinf::sim {

Resource::Resource(Simulator &sim, std::string name, double rate,
                   Seconds job_latency)
    : sim_(sim), name_(std::move(name)), rate_(rate),
      job_latency_(job_latency)
{
    SI_REQUIRE(rate > 0.0, "resource ", name_, " needs positive rate");
    SI_REQUIRE(job_latency >= 0.0, "negative job latency");
}

void
Resource::submit(double work, std::function<void()> done)
{
    SI_ASSERT(work >= 0.0, "negative work submitted to ", name_);
    queue_.push_back(Job{work, std::move(done)});
    if (!busy_)
        startNext();
}

void
Resource::startNext()
{
    if (queue_.empty()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    running_ = std::move(queue_.front());
    queue_.pop_front();
    const Seconds duration = job_latency_ + running_.work / rate_;
    if (SimObserver *observer = sim_.observer())
        observer->jobStarted(*this, running_.work, sim_.now());
    sim_.after(duration, [this, duration]() { finishRunning(duration); });
}

void
Resource::finishRunning(Seconds duration)
{
    work_done_.add(running_.work);
    busy_time_.add(duration);
    ++jobs_done_;
    // Report completion before the next job starts so observers see this
    // occupancy slice closed before the next one opens.
    if (SimObserver *observer = sim_.observer())
        observer->jobFinished(*this, running_.work, sim_.now());
    // Complete before starting the next job so dependents observing
    // idle() see a consistent state.
    auto done = std::move(running_.done);
    startNext();
    if (done)
        done();
}

} // namespace smartinf::sim
