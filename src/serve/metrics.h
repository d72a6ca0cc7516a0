/**
 * @file
 * Serving-result summarization: percentile latency, throughput, and queue
 * statistics derived from a WorkloadResult's streaming aggregates, which
 * every serving run folds each disposition into. Every serving scenario
 * and the JSON emitters report through summarize() so the metric
 * definitions live in exactly one place.
 */
#ifndef SMARTINF_SERVE_METRICS_H
#define SMARTINF_SERVE_METRICS_H

#include <vector>

#include "train/workload.h"

namespace smartinf::serve {

/**
 * Order statistics of one latency population (seconds). Well-defined for
 * every population size: empty => all zeros; a single element => every
 * field is that element. Percentiles are nearest-rank (an actual sample,
 * no interpolation) while the population fits the sketch's exact buffer.
 */
struct LatencySummary {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    double max = 0.0;
};

/** Everything a serving table reports about one run. */
struct ServingMetrics {
    int num_requests = 0; ///< every disposition (served + shed + rejected)
    Seconds makespan = 0.0;
    /** @name Successful-disposition populations.
     *
     * Latency/ttft/queue-delay summarize *successful* requests only — a
     * shed request has no meaningful completion latency, and mixing its
     * rejection timestamp into p99 would reward shedding. With no shed or
     * rejected requests (every fault-free, ctrl-free run) the populations
     * cover everything. Each population is well-defined at 0 and 1
     * elements (see LatencySummary).
     * @{ */
    LatencySummary latency;     ///< request completion (arrival -> finish)
    LatencySummary ttft;        ///< time to first token
    LatencySummary queue_delay; ///< arrival -> batch admission
    /** @} */
    double requests_per_sec = 0.0; ///< all records / makespan (offered)
    double output_tokens_per_sec = 0.0;
    double mean_queue_depth = 0.0;
    int peak_queue_depth = 0;

    /** @name Disposition (failover) metrics. Fault-free runs report
     *  num_served == num_requests, success_rate 1, goodput ==
     *  requests_per_sec, and empty shed/retry populations. @{ */
    int num_served = 0;  ///< successful records
    int num_shed = 0;    ///< records shed by the failover path
    int num_retried = 0; ///< served records with >= 1 failed attempt
    int total_retries = 0; ///< failed attempts across all records
    /** num_served / num_requests (0 for an empty result). */
    double success_rate = 0.0;
    /** Successful requests per second of makespan — the throughput that
     *  actually counts under failures. */
    double goodput = 0.0;
    /** Shed-disposition population: arrival -> shed decision (how long a
     *  rejected client waited to learn its fate). */
    LatencySummary shed_wait;
    /** @} */

    /** @name Control-plane disposition metrics. Ctrl-disabled runs report
     *  zeros, an empty reject population, and (with >= 1 replica) the
     *  round-robin imbalance of the id % N front door. @{ */
    int num_rejected = 0; ///< SLO admission turned these away
    int num_deferred = 0; ///< served/disposed records that were deferred
    int total_deferrals = 0; ///< defer rounds across all records
    /** Reject-disposition population: arrival -> reject decision. */
    LatencySummary reject_wait;
    /** Served requests per replica, indexed by node id and sized to the
     *  highest node that served anything (shed/rejected records have node
     *  -1 and are not counted). */
    std::vector<int> replica_requests;
    /** max(replica_requests) / mean(replica_requests), the mean taken
     *  over the whole fleet — 1.0 is a perfectly balanced fleet, N means
     *  one replica took everything (0 with no served requests). */
    double load_imbalance = 0.0;
    /** @} */

    /** True when every percentile above is nearest-rank exact: always
     *  with record_cap 0, and with a cap while each population fits its
     *  exact buffer — above that the histogram estimates carry <2%
     *  relative error (see StreamingPercentiles). */
    bool percentiles_exact = true;
};

/**
 * Derive the serving metrics from @p result's streaming aggregates
 * (result.streaming), never from the retained records, which record_cap
 * may truncate. The aggregates fold every disposition in and are
 * bit-identical across repeats, `--jobs` counts, and build types, so the
 * derived metrics are too. Zero-request results produce all-zero metrics.
 */
ServingMetrics summarize(const train::WorkloadResult &result);

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_METRICS_H
