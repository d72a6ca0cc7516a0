#include "obs/profiler.h"

namespace smartinf::obs {

const char *
sectionName(Section s)
{
    switch (s) {
      case Section::EventDispatch: return "event_dispatch";
      case Section::FlowRecompute: return "flow_recompute";
      case Section::FlowCallbacks: return "flow_callbacks";
      case Section::TaskComplete: return "task_complete";
      case Section::SchedulerStep: return "scheduler_step";
      case Section::kCount: break;
    }
    return "?";
}

void
Profiler::reset()
{
    for (auto &bucket : buckets_)
        bucket = Bucket{};
    flows_touched_ = 0;
    task_launches_ = 0;
}

double
Profiler::seconds(Section s) const
{
    return buckets_[static_cast<int>(s)].seconds;
}

uint64_t
Profiler::calls(Section s) const
{
    return buckets_[static_cast<int>(s)].calls;
}

bool
Profiler::enter(Section s, std::chrono::steady_clock::time_point &start)
{
    Bucket &bucket = buckets_[static_cast<int>(s)];
    if (bucket.depth++ > 0)
        return false; // nested frame: the outermost one owns the time
    start = std::chrono::steady_clock::now();
    return true;
}

void
Profiler::leave(Section s, std::chrono::steady_clock::time_point start,
                bool outermost)
{
    Bucket &bucket = buckets_[static_cast<int>(s)];
    --bucket.depth;
    if (!outermost)
        return;
    bucket.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    ++bucket.calls;
}

} // namespace smartinf::obs
