#include "train/workload.h"

namespace smartinf::train {

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Training: return "training";
      case WorkloadKind::Serving: return "serving";
    }
    return "?";
}

void
StreamingServeStats::note(const RequestRecord &record)
{
    ++total_requests;
    total_retries += record.retries;
    total_deferrals += record.deferrals;
    if (record.deferrals > 0)
        ++num_deferred;
    windows.record("arrivals", record.arrival, 1.0);
    windows.record("retirements", record.finish, 1.0);
    if (record.shed) {
        ++num_shed;
        shed_wait.record(record.finish - record.arrival);
        return;
    }
    if (record.rejected) {
        ++num_rejected;
        reject_wait.record(record.finish - record.arrival);
        return;
    }
    ++num_served;
    if (record.retries > 0)
        ++num_retried;
    if (record.node >= 0) {
        if (static_cast<std::size_t>(record.node) >= replica_requests.size())
            replica_requests.resize(static_cast<std::size_t>(record.node) + 1,
                                    0);
        ++replica_requests[static_cast<std::size_t>(record.node)];
    }
    latency.record(record.latency());
    ttft.record(record.timeToFirstToken());
    queue_delay.record(record.queueDelay());
    output_tokens += record.output_tokens;
}

} // namespace smartinf::train
