/**
 * @file
 * The Workload abstraction: the engine layer executes *workloads*, not just
 * training iterations. A Workload expresses its work (task graphs, flows,
 * timed events) into a SimContext; Engine::run() drives the simulator and
 * hands back a WorkloadResult. Training is one workload
 * (train::TrainingWorkload); batched inference serving is another
 * (serve::InferenceWorkload); new workload shapes implement this interface
 * and plug into the same engines, sweep runner, and scenario registry.
 */
#ifndef SMARTINF_TRAIN_WORKLOAD_H
#define SMARTINF_TRAIN_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/streaming_percentiles.h"
#include "common/units.h"
#include "obs/counter_sampler.h"
#include "train/traffic_ledger.h"

namespace smartinf::train {

struct SimContext;

/** The shape of work an engine executes (RunSpec axis, hashed). */
enum class WorkloadKind {
    Training, ///< steady-state training iterations (the paper's workload)
    Serving   ///< batched inference over the same storage-offload substrate
};

const char *workloadKindName(WorkloadKind kind);

/** Wall-clock split of one training iteration into the paper's three
 *  phases. Serving workloads leave it zero. */
struct PhaseBreakdown {
    Seconds forward = 0.0;
    /** Backward compute + gradient offload (paper "BW+Grad. Offload"). */
    Seconds backward = 0.0;
    /** Update + optimizer-state upload/offload. */
    Seconds update = 0.0;

    Seconds total() const { return forward + backward + update; }
};

/**
 * Lifecycle timestamps of one served request (simulated seconds). The
 * serving scheduler emits one per request and folds it into the run's
 * StreamingServeStats, from which percentile latency and throughput
 * reporting derive. Records are part of the deterministic contract: same
 * seed + spec => bit-identical records.
 */
struct RequestRecord {
    int id = 0;             ///< stream position (global across nodes)
    int node = 0;           ///< replica that served the request
    int prompt_tokens = 0;  ///< prefill length
    int output_tokens = 0;  ///< tokens generated (incl. the first)
    Seconds arrival = 0.0;  ///< open-loop/trace arrival time
    Seconds start = 0.0;    ///< admitted into a running batch
    Seconds first_token = 0.0; ///< prefill step completed
    Seconds finish = 0.0;      ///< last decode step completed
    /** Failed dispatch attempts before this disposition (failover only;
     *  always 0 in fault-free runs). */
    int retries = 0;
    /** True when the failover path gave up on the request (its
     *  re-dispatches exceeded fault.retry_limit) instead of serving it.
     *  Shed records keep their arrival and stamp finish with the
     *  shed decision time; they keep the requested prompt_tokens and
     *  report output_tokens 0 (nothing was delivered). */
    bool shed = false;
    /** SLO-admission defer rounds this request went through before its
     *  disposition (control plane only; always 0 otherwise). */
    int deferrals = 0;
    /** True when SLO admission control turned the request away: its
     *  predicted completion missed the latency target. Like shed records,
     *  rejected records keep their arrival, stamp finish with the decision
     *  time, and report output_tokens 0. */
    bool rejected = false;

    Seconds queueDelay() const { return start - arrival; }
    Seconds timeToFirstToken() const { return first_token - arrival; }
    Seconds latency() const { return finish - arrival; }
    /** Disposition: the request produced all its tokens. */
    bool successful() const { return !shed && !rejected; }
};

/**
 * What the fault-injection + recovery machinery did during one run.
 * All-zero (enabled=false) without faults — part of the inert-by-default
 * contract. Counts simulation decisions, so it is deterministic and
 * jobs-invariant like the request records.
 */
struct FaultStats {
    bool enabled = false;
    int node_crashes = 0;  ///< whole-replica failures injected
    int link_degrades = 0; ///< NIC/link degradation episodes injected
    /** @name Serving recovery. @{ */
    int requests_displaced = 0; ///< pulled off a failed replica mid-service
    int retries_dispatched = 0; ///< re-dispatch attempts issued
    int requests_shed = 0;      ///< num_shed (retry limit exceeded)
    /** @} */
    /** @name Training recovery. @{ */
    int checkpoints_written = 0; ///< durable checkpoints committed
    int restarts = 0;            ///< crash -> rewind -> replay episodes
    int iterations_replayed = 0; ///< redone iterations (lost progress)
    /** @} */
};

/**
 * What the cluster control plane did during one serving run. All-zero
 * (enabled=false) when the control plane is off — part of its
 * inert-by-default contract. Counts simulation decisions, so it is
 * deterministic and jobs-invariant like the request records.
 */
struct CtrlStats {
    bool enabled = false;
    int rejected = 0;    ///< streaming num_rejected (SLO admission)
    int deferrals = 0;   ///< streaming total_deferrals (defer rounds)
    int scale_ups = 0;   ///< replica warm-ups initiated
    int scale_downs = 0; ///< replica drains initiated
    int warmups_completed = 0; ///< warm-up prefills that finished
    int peak_active_replicas = 0; ///< max simultaneously active replicas
};

/**
 * Aggregate paged-KV statistics of one serving run (summed across node
 * schedulers; zero unless kv.layout=paged). Part of the deterministic
 * result contract — these count simulation decisions, not observability.
 */
struct KvCacheStats {
    std::uint64_t prefix_hits = 0;   ///< admissions that mapped cached pages
    std::uint64_t prefix_misses = 0; ///< admissions that produced a prefix
    std::uint64_t prefix_evictions = 0; ///< cold entries reclaimed
    std::uint64_t cow_copies = 0; ///< divergent appends into shared pages
    int peak_used_blocks = 0;     ///< max live pages on any one node
    int peak_span_blocks = 0;     ///< max arena extent (incl. holes)
    /** Max instantaneous span/used ratio (1.0 = always compact; holes
     *  from ragged retirement push it above 1). */
    double peak_fragmentation = 1.0;
    Bytes peak_block_table_bytes = 0; ///< max mapping-metadata footprint

    double hitRate() const
    {
        const std::uint64_t lookups = prefix_hits + prefix_misses;
        return lookups == 0
                   ? 1.0
                   : static_cast<double>(prefix_hits) /
                         static_cast<double>(lookups);
    }
};

/**
 * Streaming serving aggregates: every serving run folds each disposition
 * in at its decision time, and serve::summarize derives all serving
 * metrics from them (all zero for training). Bounded-memory primitives:
 * StreamingPercentiles sketches for the latency populations (exact up to
 * ServeConfig::record_cap, or always with record_cap 0; <2% relative
 * error above the cap) and an obs::CounterSampler for windowed
 * arrival/retirement time-series — so a 10^6-request capped run reports
 * p50/p95/p99 without ever holding 10^6 records.
 */
struct StreamingServeStats {
    /** Records kept verbatim in WorkloadResult::requests (== min(cap,
     *  disposed) with a cap, else every disposition); every count below
     *  covers the *whole* stream. */
    int records_retained = 0;
    std::int64_t total_requests = 0; ///< served + shed + rejected
    std::int64_t num_served = 0;
    std::int64_t num_shed = 0;
    std::int64_t num_rejected = 0;
    std::int64_t num_retried = 0;
    std::int64_t total_retries = 0;
    std::int64_t num_deferred = 0;
    std::int64_t total_deferrals = 0;
    double output_tokens = 0.0;
    /** @name Latency populations (successful records only, like
     *  serve::summarize; shed/reject waits cover their dispositions). @{ */
    StreamingPercentiles latency;
    StreamingPercentiles ttft;
    StreamingPercentiles queue_delay;
    StreamingPercentiles shed_wait;
    StreamingPercentiles reject_wait;
    /** @} */
    /** Served requests per replica (node-indexed, like the metrics). */
    std::vector<int> replica_requests;
    /** Windowed time-series: "arrivals" and "retirements" (one unit
     *  sample each per disposition) — peak-window rates derive from
     *  these. */
    obs::CounterSampler windows{60.0};

    /** Fold one disposed record in (the serving workload's disposition
     *  path calls this once per request, in disposition order). */
    void note(const RequestRecord &record);

    /** True when every percentile population is still exact. */
    bool percentilesExact() const
    {
        return latency.exact() && ttft.exact() && queue_delay.exact() &&
               shed_wait.exact() && reject_wait.exact();
    }
};

/**
 * Result of simulating one workload. Training populates phases; serving
 * populates the per-request records and queue statistics. iteration_time
 * keeps its historic name and always holds the workload makespan.
 */
struct WorkloadResult {
    WorkloadKind kind = WorkloadKind::Training;
    PhaseBreakdown phases;
    TrafficLedger traffic;
    /** Workload makespan (== phases.total() for training). */
    Seconds iteration_time = 0.0;
    /** Discrete events the simulator executed — the denominator of the
     *  perf harness's events/sec metric. */
    uint64_t events_executed = 0;

    /** @name Serving only (empty/zero for training). @{ */
    /** One record per request, sorted by id. */
    std::vector<RequestRecord> requests;
    /** Integral of the cluster-wide queued-request count over time;
     *  divide by iteration_time for the mean queue depth. */
    double queue_depth_time_integral = 0.0;
    /** Largest instantaneous per-node queue depth observed. */
    int peak_queue_depth = 0;
    /** Paged KV-cache statistics (all-zero unless kv.layout=paged). */
    KvCacheStats kv;
    /** Control-plane statistics (enabled=false and all-zero unless the
     *  run enabled the control plane). */
    CtrlStats ctrl;
    /** Streaming aggregates: the whole-stream summary every serving
     *  metric derives from (with record_cap > 0, requests holds only the
     *  first record_cap records). */
    StreamingServeStats streaming;
    /** @} */

    /** Fault/recovery statistics (enabled=false and all-zero unless the
     *  run injected faults). */
    FaultStats fault;
};

/**
 * One unit of executable work. Implementations hold the workload's own
 * parameters (model, batch shape, request stream, ...) and read the system
 * shape from the SimContext the engine hands them. A Workload instance is
 * single-use state for one run: build() may stash task ids / schedulers
 * that collect() then harvests.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;
    virtual WorkloadKind kind() const = 0;

    /**
     * Express the workload in @p ctx: add tasks/dependencies to the graph
     * and (for reactive workloads) schedule timed events that grow the
     * graph dynamically while the simulator runs. Called exactly once,
     * before the engine starts the graph.
     */
    virtual void build(SimContext &ctx) = 0;

    /**
     * Harvest workload-specific results after the simulator drained.
     * Engine::run() fills traffic and events_executed afterwards.
     */
    virtual void collect(const SimContext &ctx, WorkloadResult &out) = 0;
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_WORKLOAD_H
