#include "sim/simulator.h"

#include "obs/profiler.h"

namespace smartinf::sim {

Seconds
Simulator::run()
{
    // The profiled loop exists so `perfbench --trace 1` can attribute
    // host wall time to event dispatch; checking enablement once per run
    // keeps the common (unprofiled) loop free of clock reads.
    if (obs::Profiler::instance().enabled()) {
        while (!queue_.empty()) {
            const obs::Profiler::Scoped probe(obs::Section::EventDispatch);
            queue_.runNext(now_);
            ++events_executed_;
        }
        return now_;
    }
    while (queue_.runNext(now_))
        ++events_executed_;
    return now_;
}

Seconds
Simulator::runUntil(const std::function<bool()> &predicate)
{
    while (!predicate() && queue_.runNext(now_))
        ++events_executed_;
    return now_;
}

} // namespace smartinf::sim
