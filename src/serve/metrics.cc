#include "serve/metrics.h"

#include <algorithm>

namespace smartinf::serve {

namespace {

/** Summary of a streaming sketch: percentiles from the sketch (exact
 *  below its cap), mean/max from its exact scalars. */
LatencySummary
summarizeSketch(const StreamingPercentiles &p)
{
    LatencySummary out;
    out.p50 = p.percentile(50.0);
    out.p95 = p.percentile(95.0);
    out.p99 = p.percentile(99.0);
    out.mean = p.mean();
    out.max = p.maxValue();
    return out;
}

} // namespace

ServingMetrics
summarize(const train::WorkloadResult &result)
{
    const train::StreamingServeStats &s = result.streaming;
    ServingMetrics m;
    m.percentiles_exact = s.percentilesExact();
    m.num_requests = static_cast<int>(s.total_requests);
    m.makespan = result.iteration_time;
    m.peak_queue_depth = result.peak_queue_depth;
    if (m.makespan > 0.0)
        m.mean_queue_depth = result.queue_depth_time_integral / m.makespan;
    m.num_served = static_cast<int>(s.num_served);
    m.num_shed = static_cast<int>(s.num_shed);
    m.num_rejected = static_cast<int>(s.num_rejected);
    m.num_retried = static_cast<int>(s.num_retried);
    m.total_retries = static_cast<int>(s.total_retries);
    m.num_deferred = static_cast<int>(s.num_deferred);
    m.total_deferrals = static_cast<int>(s.total_deferrals);
    m.latency = summarizeSketch(s.latency);
    m.ttft = summarizeSketch(s.ttft);
    m.queue_delay = summarizeSketch(s.queue_delay);
    m.shed_wait = summarizeSketch(s.shed_wait);
    m.reject_wait = summarizeSketch(s.reject_wait);
    m.replica_requests = s.replica_requests;
    if (!m.replica_requests.empty()) {
        const int peak = *std::max_element(m.replica_requests.begin(),
                                           m.replica_requests.end());
        const double mean =
            static_cast<double>(m.num_served) /
            static_cast<double>(m.replica_requests.size());
        if (mean > 0.0)
            m.load_imbalance = static_cast<double>(peak) / mean;
    }
    if (m.num_requests > 0)
        m.success_rate = static_cast<double>(m.num_served) /
                         static_cast<double>(m.num_requests);
    if (m.makespan > 0.0) {
        m.requests_per_sec = m.num_requests / m.makespan;
        m.output_tokens_per_sec = s.output_tokens / m.makespan;
        m.goodput = m.num_served / m.makespan;
    }
    return m;
}

} // namespace smartinf::serve
