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
    queue_.reserve(kInitialJobs);
}

void
Resource::submit(double work, Notify done)
{
    SI_ASSERT(work >= 0.0, "negative work submitted to ", name_);
    queue_.push_back(Job{work, done});
    if (!busy_)
        startNext();
}

void
Resource::startNext()
{
    if (head_ == queue_.size()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    running_ = queue_[head_++];
    // Reclaim the taken prefix once the queue drains, or once it is most
    // of a long backlog that never drains.
    if (head_ == queue_.size()) {
        queue_.clear();
        head_ = 0;
    } else if (head_ >= kReclaimAt && 2 * head_ >= queue_.size()) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    const Seconds duration = job_latency_ + running_.work / rate_;
    if (SimObserver *observer = sim_.observer())
        observer->jobStarted(*this, running_.work, sim_.now());
    sim_.after(duration, Notify{this, 0});
}

void
Resource::onNotify(uint64_t)
{
    // Report completion before the next job starts so observers see this
    // occupancy slice closed before the next one opens.
    if (SimObserver *observer = sim_.observer())
        observer->jobFinished(*this, running_.work, sim_.now());
    // Complete before starting the next job so dependents observing
    // idle() see a consistent state.
    const Notify done = running_.done;
    startNext();
    if (done)
        done();
}

} // namespace smartinf::sim
