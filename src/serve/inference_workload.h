/**
 * @file
 * Inference serving as a Workload: a finite request stream served by
 * 1..N data-parallel replicas of the storage-offload substrate, all inside
 * one SimContext. Every request enters through one front door, dispatch():
 * with faults and the control plane off its skip-dead scan shards requests
 * round-robin (request i to replica i % N). Each replica runs its own
 * BatchScheduler and InferenceBuilder with node-prefixed links, so N-node
 * serving measures true replica contention-free scaling while every node's
 * internal PCIe contention is still modeled. Runs on any engine via
 * Engine::run() — makeEngine's num_nodes dispatch works unchanged.
 *
 * Request generation is always streaming: specs are drawn lazily from the
 * RequestSource, and the task graph trims its completed prefix, so memory
 * is O(in-flight) rather than O(stream) in every mode — the
 * 10^5–10^6-request scenarios depend on this.
 *
 * Client modes:
 *  - OpenLoop (generated or trace arrivals): arrivals are timed events
 *    that dispatch regardless of server state, chained one ahead — each
 *    arrival event schedules the next before dispatching its own request.
 *  - ClosedLoop: a fixed population of config.concurrency clients, each
 *    owning the requests whose id ≡ client (mod concurrency), issues one
 *    request at a time: the scheduler's retire hook (which fires inside
 *    the deterministic retirement event) schedules the client's next
 *    submission think_time later through the simulator — the reactive-
 *    graph protocol described in DESIGN.md "The Workload API".
 *
 * Every request leaves through one back door, dispose(): the schedulers'
 * retire hook and the turn-away path (retry-limit shedding, SLO rejection)
 * both hand it the request's record, and it alone folds the record into
 * the streaming aggregates, keeps it under the record cap, notifies the
 * control plane, and releases a closed-loop client — in that order.
 */
#ifndef SMARTINF_SERVE_INFERENCE_WORKLOAD_H
#define SMARTINF_SERVE_INFERENCE_WORKLOAD_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_schedule.h"
#include "serve/batch_scheduler.h"
#include "serve/cluster_controller.h"
#include "serve/request_source.h"
#include "train/workload.h"

namespace smartinf::serve {

/** A finite request stream served on ctx.system.num_nodes replicas. */
class InferenceWorkload final : public train::Workload,
                                private sim::Receiver
{
  public:
    InferenceWorkload(const train::ModelSpec &model, ServeConfig config);

    std::string name() const override { return "inference-serving"; }
    train::WorkloadKind kind() const override
    {
        return train::WorkloadKind::Serving;
    }

    void build(train::SimContext &ctx) override;
    void collect(const train::SimContext &ctx,
                 train::WorkloadResult &out) override;

    const ServeConfig &config() const { return config_; }

  private:
    /** Why a request was turned away without service. */
    enum class TurnAway { Shed, Reject };

    /**
     * What a timed event naming this workload asks of it: the low byte of
     * the event's argument, with a payload above it. An arrival carries
     * nothing (the one undelivered spec waits in next_arrival_); a
     * dispatch carries a slot of parked_ (retry, deferral, closed-loop
     * issue); a fault or link restore carries the event's index into
     * faults_; a revive carries the node.
     */
    enum Event : uint64_t {
        kArrival, kDispatch, kFault, kLinkRestore, kRevive,
    };
    sim::Notify
    notice(Event what, std::size_t payload = 0)
    {
        return {this, what | uint64_t{payload} << 8};
    }
    void onNotify(uint64_t arg) override;
    /** Dispatch @p request at simulated time @p at, parked in parked_
     *  until then. */
    void dispatchAt(Seconds at, const RequestSpec &request);

    /** Closed loop: issue @p request at simulated time @p at (stamps the
     *  record's arrival, then dispatch() when the event fires). */
    void issueSpec(RequestSpec request, Seconds at);
    /** Open loop: draw the next request and arm its arrival event, which
     *  first chains the one after it (one timed event per arrival). */
    void scheduleNextArrival(train::SimContext &ctx);
    /** Closed loop: the spec with @p id, drawing the source forward
     *  (parking other clients' specs in pending_) as needed. */
    RequestSpec takeSpec(int id);
    /** Closed loop: schedule the owning client's next request
     *  think_time after @p record.finish. */
    void releaseClient(const train::RequestRecord &record);
    /**
     * The one disposition path (served, shed, or rejected): fold
     * @p record into the streaming aggregates, keep it while fewer than
     * config.record_cap records are kept (always when the cap is 0),
     * notify the control plane, and release a closed-loop client.
     */
    void dispose(train::SimContext &ctx, const train::RequestRecord &record);
    /**
     * Dispose of @p request now without serving it: retry-limit shedding or
     * SLO-admission rejection. Either way it is a first-class record
     * (disposition, retries, deferrals, and the decision time).
     */
    void turnAway(train::SimContext &ctx, const RequestSpec &request,
                  TurnAway why);
    /**
     * Route @p request to a live replica. Selection: the control plane's
     * dispatch policy when enabled, else the deterministic skip-dead scan
     * from (id + attempt) % N. Faults shed a request whose attempt
     * exceeds the retry limit; the control plane adds SLO admission
     * (reject/defer) for first attempts. Whole-fleet-down falls
     * back to another backoff round (bounded by the retry limit). Every
     * arrival, retry, and deferral enters here: the single dispatch seam.
     */
    void dispatch(train::SimContext &ctx, const RequestSpec &request);

    /** @name Failover path (config.fault.enabled only). @{ */
    /** Apply faults_[@p index] now: crash or degrade, plus the matching
     *  restore event at time + duration. */
    void onFault(train::SimContext &ctx, std::size_t index);
    /** Re-dispatch a displaced request: bump attempt, wait the linear
     *  backoff (attempt * 0.5 s), then dispatch(). */
    void redispatch(train::SimContext &ctx, RequestSpec request);
    /** @} */

    train::ModelSpec model_;
    ServeConfig config_;
    train::SimContext *ctx_ = nullptr;
    /** Lazy generator: the only source of request specs. */
    std::unique_ptr<RequestSource> source_;
    /** Total requests this run disposes (== ServeConfig::streamSize()). */
    int stream_total_ = 0;
    /** Closed loop: specs drawn past a slow client's cursor, parked until
     *  that client asks for them (bounded by the spread between the
     *  fastest and slowest client, not the stream). */
    std::map<int, RequestSpec> pending_;
    /** Open loop: the drawn spec whose arrival event is scheduled. */
    RequestSpec next_arrival_;
    /** Specs waiting in a scheduled dispatch event, by slot, and the free
     *  slots (reused, so the table holds the peak number waiting). */
    std::vector<RequestSpec> parked_;
    std::vector<uint32_t> free_parked_;
    std::vector<std::unique_ptr<InferenceBuilder>> builders_;
    std::vector<std::unique_ptr<BatchScheduler>> schedulers_;
    /** The cluster control plane (null unless config.ctrl.enabled). */
    std::unique_ptr<ClusterController> ctrl_;
    /** Every kept record, served or turned away, in disposition order
     *  (the first config.record_cap dispositions when capped). */
    std::vector<train::RequestRecord> records_;
    /** Closed loop: per-client cursor into its id-strided request slice. */
    std::vector<std::size_t> client_next_;
    /** Every disposition, folded in as it happens (metrics source). */
    train::StreamingServeStats streaming_stats_;

    /** @name Failover state (empty/zero in fault-free runs). @{ */
    train::FaultStats fault_stats_;
    /** The pre-drawn fault schedule. */
    std::vector<fault::FaultEvent> faults_;
    /** Link-degradation episodes (set when enabled). */
    std::optional<fault::LinkEpisodes> fault_links_;
    /** @} */
};

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_INFERENCE_WORKLOAD_H
