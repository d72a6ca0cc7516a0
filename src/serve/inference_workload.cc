#include "serve/inference_workload.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/observation.h"
#include "train/system_builder.h"

namespace smartinf::serve {

InferenceWorkload::InferenceWorkload(const train::ModelSpec &model,
                                     ServeConfig config)
    : model_(model), config_(std::move(config))
{
    const auto errors = config_.validate();
    SI_REQUIRE(errors.empty(), "invalid ServeConfig: ",
               train::joinErrors(errors));
}

void
InferenceWorkload::issueSpec(RequestSpec request, Seconds at)
{
    // Stamp the actual issue time (it is reactive) so the record's
    // queueDelay/latency measure from submission. The replica is chosen
    // when the event fires, against the fleet's state at that moment.
    request.arrival = at;
    dispatchAt(at, request);
}

void
InferenceWorkload::dispatchAt(Seconds at, const RequestSpec &request)
{
    std::size_t slot = parked_.size();
    if (free_parked_.empty()) {
        parked_.push_back(request);
    } else {
        slot = free_parked_.back();
        free_parked_.pop_back();
        parked_[slot] = request;
    }
    ctx_->sim.at(at, notice(kDispatch, slot));
}

void
InferenceWorkload::onNotify(uint64_t arg)
{
    train::SimContext &ctx = *ctx_;
    const std::size_t payload = arg >> 8;
    switch (static_cast<Event>(arg & 0xff)) {
      case kArrival: {
        // Chain the next arrival before delivering this one, so an exactly
        // tied successor still fires ahead of anything the delivery
        // schedules.
        const RequestSpec request = next_arrival_;
        scheduleNextArrival(ctx);
        return dispatch(ctx, request);
      }
      case kDispatch: {
        const RequestSpec request = parked_[payload];
        free_parked_.push_back(static_cast<uint32_t>(payload));
        return dispatch(ctx, request);
      }
      case kFault:
        return onFault(ctx, payload);
      case kLinkRestore:
        fault_links_->end(faults_[payload]);
        if (ctx.obs)
            ctx.obs->recoveryAction("link-restore", faults_[payload].node,
                                    ctx.sim.now());
        return;
      case kRevive:
        schedulers_[payload]->revive();
        if (ctx.obs)
            ctx.obs->recoveryAction("revive", static_cast<int>(payload),
                                    ctx.sim.now());
        return;
    }
}

void
InferenceWorkload::scheduleNextArrival(train::SimContext &ctx)
{
    if (source_->done())
        return;
    // One timed event per arrival. The event chains the next arrival
    // before delivering this one, so at most one undelivered spec exists
    // at any simulated moment.
    next_arrival_ = source_->next();
    ctx.sim.at(next_arrival_.arrival, notice(kArrival));
}

RequestSpec
InferenceWorkload::takeSpec(int id)
{
    const auto it = pending_.find(id);
    if (it != pending_.end()) {
        RequestSpec request = it->second;
        pending_.erase(it);
        return request;
    }
    while (!source_->done()) {
        RequestSpec request = source_->next();
        if (request.id == id)
            return request;
        pending_.emplace(request.id, request);
    }
    SI_ASSERT(false, "takeSpec past the end of the request stream");
    return {};
}

void
InferenceWorkload::releaseClient(const train::RequestRecord &record)
{
    const std::size_t clients = client_next_.size();
    const std::size_t client =
        static_cast<std::size_t>(record.id) % clients;
    const std::size_t next = client_next_[client];
    if (next >= static_cast<std::size_t>(stream_total_))
        return; // this client's slice is exhausted
    client_next_[client] = next + clients;
    const Seconds at = record.finish + config_.think_time;
    issueSpec(takeSpec(static_cast<int>(next)), at);
}

void
InferenceWorkload::dispose(train::SimContext &ctx,
                           const train::RequestRecord &record)
{
    streaming_stats_.note(record);
    if (config_.record_cap == 0 ||
        static_cast<int>(records_.size()) < config_.record_cap)
        records_.push_back(record);
    if (ctrl_)
        ctrl_->noteDisposed(record, ctx.sim.now());
    // A closed-loop client moves on when its request is turned away,
    // exactly as it does on completion — otherwise the population would
    // deadlock.
    if (config_.client_mode == ClientMode::ClosedLoop)
        releaseClient(record);
}

void
InferenceWorkload::turnAway(train::SimContext &ctx,
                            const RequestSpec &request, TurnAway why)
{
    const Seconds now = ctx.sim.now();
    train::RequestRecord record =
        dispositionRecord(request, -1, now, now, now, 0);
    record.shed = why == TurnAway::Shed;
    record.rejected = why == TurnAway::Reject;
    if (record.shed && ctx.obs)
        ctx.obs->recoveryAction("shed", request.id, now);
    dispose(ctx, record);
}

void
InferenceWorkload::redispatch(train::SimContext &ctx, RequestSpec request)
{
    constexpr Seconds kRetryBackoff = 0.5; // attempt k waits k times this
    request.attempt += 1;
    ++fault_stats_.retries_dispatched;
    const Seconds backoff =
        static_cast<double>(request.attempt) * kRetryBackoff;
    dispatchAt(ctx.sim.now() + backoff, request);
}

void
InferenceWorkload::dispatch(train::SimContext &ctx,
                            const RequestSpec &request)
{
    if (config_.fault.enabled && request.attempt > config_.fault.retry_limit)
        return turnAway(ctx, request, TurnAway::Shed);

    std::size_t chosen;
    const std::size_t n = schedulers_.size();
    if (ctrl_) {
        // Control plane: dispatch policy over the active, live replicas
        // (fifth-stream draws for JSQ ties and P2C probes).
        const int picked = ctrl_->chooseReplica(request);
        if (picked < 0) {
            // Whole active set crashed — only reachable under fault
            // injection (autoscaling never drains below min_replicas).
            SI_ASSERT(config_.fault.enabled,
                      "no eligible replica without fault injection");
            return redispatch(ctx, request);
        }
        chosen = static_cast<std::size_t>(picked);
    } else {
        // Deterministic skip-dead scan from the request's home replica;
        // the attempt offsets the start so a retry prefers a *different*
        // replica than the one that just failed it.
        chosen = n;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t cand =
                (static_cast<std::size_t>(request.id) + request.attempt +
                 k) %
                n;
            if (!schedulers_[cand]->dead()) {
                chosen = cand;
                break;
            }
        }
        if (chosen == n)
            return redispatch(ctx, request); // whole fleet down: back off
    }
    // SLO admission (first attempts only — a retry already passed the
    // failover path's retry limit).
    if (ctrl_ && request.attempt == 0) {
        const Seconds now = ctx.sim.now();
        const ctrl::AdmissionDecision verdict =
            ctrl_->admit(now, request, static_cast<int>(chosen));
        if (verdict == ctrl::AdmissionDecision::Reject)
            return turnAway(ctx, request, TurnAway::Reject);
        if (verdict == ctrl::AdmissionDecision::Defer) {
            RequestSpec deferred = request;
            deferred.deferrals += 1;
            if (ctx.obs)
                ctx.obs->ctrlDecision("defer", request.id, now);
            dispatchAt(now + config_.ctrl.slo.defer_delay_s, deferred);
            return;
        }
    }
    schedulers_[chosen]->submit(request);
}

void
InferenceWorkload::onFault(train::SimContext &ctx, std::size_t index)
{
    const fault::FaultEvent &event = faults_[index];
    const Seconds now = ctx.sim.now();
    if (ctx.obs)
        ctx.obs->faultInjected(fault::faultKindName(event.kind), event.node,
                               now);
    switch (event.kind) {
      case fault::FaultKind::NodeCrash: {
        if (schedulers_[event.node]->dead())
            break; // already down (a second crash inside the repair window)
        ++fault_stats_.node_crashes;
        std::vector<RequestSpec> displaced =
            schedulers_[event.node]->failNode();
        fault_stats_.requests_displaced +=
            static_cast<int>(displaced.size());
        for (RequestSpec &spec : displaced)
            redispatch(ctx, std::move(spec));
        ctx.sim.at(now + event.duration,
                   notice(kRevive, static_cast<std::size_t>(event.node)));
        break;
      }
      case fault::FaultKind::LinkDegrade: {
        ++fault_stats_.link_degrades;
        // The node's host interconnect (the trunk every storage and KV
        // flow crosses) runs at a fraction of its capacity for a while;
        // the incremental max-min scheduler re-shares mid-flow.
        fault_links_->begin(event);
        ctx.sim.at(now + event.duration, notice(kLinkRestore, index));
        break;
      }
    }
}

void
InferenceWorkload::build(train::SimContext &ctx)
{
    SI_ASSERT(builders_.empty(), "InferenceWorkload::build called twice");
    ctx_ = &ctx;
    const int nodes = ctx.system.num_nodes;
    stream_total_ = config_.streamSize();
    source_ = std::make_unique<RequestSource>(config_);

    for (int i = 0; i < nodes; ++i) {
        builders_.push_back(std::make_unique<InferenceBuilder>(
            model_, ctx.system, config_, ctx, train::linkPrefix(i, nodes)));
        schedulers_.push_back(std::make_unique<BatchScheduler>(
            ctx, *builders_.back(), config_, i));
    }

    // Fault injection: the schedule is drawn pre-sim from the fourth
    // derived stream of the *client* seed (enabling faults perturbs no
    // arrival, length, or prefix), then armed as timed events. faults_armed
    // makes every step a revocation domain, so a revoked step's transfer
    // tasks pull their in-flight flows out of the network.
    if (config_.fault.enabled) {
        ctx.faults_armed = true;
        fault_stats_.enabled = true;
        fault_links_.emplace(ctx);
        faults_ = fault::generateFaultSchedule(config_.fault, config_.seed,
                                               nodes);
        for (std::size_t i = 0; i < faults_.size(); ++i)
            ctx.sim.at(faults_[i].time, notice(kFault, i));
    }

    // Control plane: built after the schedulers exist, started before any
    // request is issued.
    if (config_.ctrl.enabled) {
        ctrl_ = std::make_unique<ClusterController>(ctx, config_, builders_,
                                                    schedulers_);
        ctrl_->start(stream_total_);
    }

    // Every disposition folds into the streaming aggregates, the one
    // source of the serving metrics. Their sketches stay exact up to
    // record_cap (for the whole stream when it is 0); a cap also bounds
    // the records dispose() keeps.
    const int exact_cap = config_.record_cap > 0
                              ? config_.record_cap
                              : std::numeric_limits<int>::max();
    streaming_stats_.latency = StreamingPercentiles(exact_cap);
    streaming_stats_.ttft = StreamingPercentiles(exact_cap);
    streaming_stats_.queue_delay = StreamingPercentiles(exact_cap);
    streaming_stats_.shed_wait = StreamingPercentiles(exact_cap);
    streaming_stats_.reject_wait = StreamingPercentiles(exact_cap);
    if (config_.record_cap > 0)
        streaming_stats_.windows =
            obs::CounterSampler(config_.stream_window_s);

    // Every retirement is a disposition, fired inside the deterministic
    // retirement event.
    for (auto &scheduler : schedulers_)
        scheduler->setRetireHook(
            [this, &ctx](const train::RequestRecord &record) {
                dispose(ctx, record);
            });

    // One front door: every arrival goes through dispatch(), whose
    // fault-free, ctrl-free scan sends request i to replica i % N. The
    // graph itself starts empty for this workload and grows reactively.
    if (config_.client_mode == ClientMode::ClosedLoop) {
        // Client c owns requests {i : i ≡ c (mod concurrency)}, in id
        // order; each issues its first request at t = 0 and its next one
        // think_time after the previous finished (via the retire hook,
        // which fires inside the deterministic retirement event).
        const std::size_t clients = static_cast<std::size_t>(
            std::min<int>(config_.concurrency, stream_total_));
        client_next_.assign(clients, 0);
        for (std::size_t c = 0; c < clients; ++c) {
            client_next_[c] = c + clients;
            issueSpec(takeSpec(static_cast<int>(c)), 0.0);
        }
    } else {
        // Open loop and trace: chain arrivals one ahead — the arrival
        // event for request i schedules request i+1's before dispatching.
        scheduleNextArrival(ctx);
    }
}

void
InferenceWorkload::collect(const train::SimContext &ctx,
                           train::WorkloadResult &out)
{
    out.iteration_time =
        ctx.graph.taskCount() > 0 ? ctx.graph.makespan() : 0.0;

    for (const auto &scheduler : schedulers_) {
        scheduler->finalize();
        out.queue_depth_time_integral += scheduler->queueDepthIntegral();
        out.peak_queue_depth =
            std::max(out.peak_queue_depth, scheduler->peakQueueDepth());
        // Paged-KV stats: counters sum across nodes, peaks take the max
        // (each node owns an independent arena).
        const train::KvCacheStats kv = scheduler->kvStats();
        out.kv.prefix_hits += kv.prefix_hits;
        out.kv.prefix_misses += kv.prefix_misses;
        out.kv.prefix_evictions += kv.prefix_evictions;
        out.kv.cow_copies += kv.cow_copies;
        out.kv.peak_used_blocks =
            std::max(out.kv.peak_used_blocks, kv.peak_used_blocks);
        out.kv.peak_span_blocks =
            std::max(out.kv.peak_span_blocks, kv.peak_span_blocks);
        out.kv.peak_fragmentation =
            std::max(out.kv.peak_fragmentation, kv.peak_fragmentation);
        out.kv.peak_block_table_bytes = std::max(
            out.kv.peak_block_table_bytes, kv.peak_block_table_bytes);
    }
    // Disposition accounting is count-based: with a record cap the kept
    // records are a prefix of the dispositions, but every request must
    // still have been served, shed, or rejected exactly once.
    const train::StreamingServeStats &ss = streaming_stats_;
    SI_ASSERT(ss.total_requests == static_cast<std::int64_t>(stream_total_),
              "not every request was served, shed, or rejected");
    SI_ASSERT(config_.record_cap > 0 ||
                  static_cast<int>(records_.size()) == stream_total_,
              "uncapped run lost request records");
    // Ids are unique, so the sort fixes the order.
    std::sort(records_.begin(), records_.end(),
              [](const train::RequestRecord &a,
                 const train::RequestRecord &b) { return a.id < b.id; });
    out.requests = std::move(records_);
    out.fault = fault_stats_;
    out.fault.requests_shed = static_cast<int>(ss.num_shed);
    if (ctrl_) {
        out.ctrl = ctrl_->stats();
        out.ctrl.rejected = static_cast<int>(ss.num_rejected);
        out.ctrl.deferrals = static_cast<int>(ss.total_deferrals);
    }
    streaming_stats_.records_retained = static_cast<int>(out.requests.size());
    out.streaming = std::move(streaming_stats_);
}

} // namespace smartinf::serve
