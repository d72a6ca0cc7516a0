#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/observation.h"
#include "obs/profiler.h"
#include "train/sim_context.h"

namespace smartinf::serve {

using sim::TaskGraph;
using TaskId = TaskGraph::TaskId;

train::RequestRecord
dispositionRecord(const RequestSpec &spec, int node, Seconds start,
                  Seconds first_token, Seconds finish, int output_tokens)
{
    train::RequestRecord record;
    record.id = spec.id;
    record.node = node;
    record.prompt_tokens = spec.prompt_tokens;
    record.output_tokens = output_tokens;
    record.arrival = spec.arrival;
    record.start = start;
    record.first_token = first_token;
    record.finish = finish;
    record.retries = spec.attempt;
    record.deferrals = spec.deferrals;
    return record;
}

BatchScheduler::BatchScheduler(train::SimContext &ctx,
                               InferenceBuilder &builder,
                               const ServeConfig &config, int node)
    : ctx_(ctx), builder_(builder), config_(config), node_(node)
{
    if (config_.kv.paged()) {
        // Tier capacities in whole pages, rounded down: a page that only
        // partially fits a budget is treated as spilled (conservative,
        // and keeps slot -> tier a pure function of the slot index).
        kv::KvSpaceConfig kcfg;
        kcfg.block_tokens = config_.kv.block_tokens;
        kcfg.bytes_per_token = builder_.kvBytesPerToken();
        const Bytes block_bytes =
            static_cast<Bytes>(kcfg.block_tokens) * kcfg.bytes_per_token;
        kcfg.hbm_blocks =
            static_cast<int>(config_.kv.hbm_budget / block_bytes);
        kcfg.host_blocks =
            static_cast<int>(config_.kv.host_budget / block_bytes);
        kv_ = std::make_unique<kv::KvSpace>(kcfg);
    }
}

train::KvCacheStats
BatchScheduler::kvStats() const
{
    train::KvCacheStats stats;
    if (!kv_)
        return stats;
    const kv::KvGauges g = kv_->gauges();
    stats.prefix_hits = g.prefix_hits;
    stats.prefix_misses = g.prefix_misses;
    stats.prefix_evictions = g.prefix_evictions;
    stats.cow_copies = g.cow_copies;
    stats.peak_used_blocks = kv_->peakUsedBlocks();
    stats.peak_span_blocks = kv_->peakSpanBlocks();
    stats.peak_fragmentation = kv_->peakFragmentation();
    stats.peak_block_table_bytes = kv_->peakBlockTableBytes();
    return stats;
}

void
BatchScheduler::noteQueueDepthChange()
{
    const Seconds now = ctx_.sim.now();
    queue_depth_integral_ +=
        static_cast<double>(queue_.size()) * (now - last_depth_change_);
    last_depth_change_ = now;
}

void
BatchScheduler::submit(const RequestSpec &request)
{
    noteQueueDepthChange();
    queue_.push_back(request);
    peak_queue_depth_ =
        std::max(peak_queue_depth_, static_cast<int>(queue_.size()));
    if (ctx_.obs)
        ctx_.obs->queueDepth(node_, static_cast<int>(queue_.size()),
                             ctx_.sim.now());
    maybeBeginStep();
}

void
BatchScheduler::maybeBeginStep()
{
    if (step_in_flight_)
        return;
    if (dead_)
        return; // crashed: revive() restarts stepping
    if (running_.empty() && queue_.empty())
        return; // idle until the next arrival
    // A non-empty batch always continues decoding under both policies;
    // whether queued requests may join is beginStep's admission decision.
    beginStep();
}

void
BatchScheduler::beginStep()
{
    SI_ASSERT(!step_in_flight_, "overlapping scheduler steps");
    const obs::Profiler::Scoped probe(obs::Section::SchedulerStep);
    const Seconds now = ctx_.sim.now();

    // Admission. FIFO: only into an empty batch (run-to-completion);
    // continuous: top the batch up every step.
    const bool may_admit = config_.scheduler == SchedulerPolicy::Continuous
                               ? true
                               : running_.empty();
    if (may_admit && !queue_.empty()) {
        noteQueueDepthChange();
        while (!queue_.empty() &&
               static_cast<int>(running_.size()) < config_.max_batch) {
            Active a;
            a.spec = queue_.front();
            a.start = now;
            queue_.pop_front();
            // Paged layout: create the block table now. A prefix hit maps
            // the cached pages and shrinks this request's prefill; a miss
            // makes it the producer (pages allocated here, in admission
            // order, so placement is deterministic).
            if (kv_)
                a.shared_tokens = kv_->admit(a.spec.id, a.spec.prefix_id,
                                             a.spec.prefix_tokens);
            running_.push_back(a);
        }
    }
    SI_ASSERT(!running_.empty(), "beginStep with no admissible work");
    if (ctx_.obs) {
        int prefills = 0;
        for (const Active &a : running_)
            prefills += a.prefilled ? 0 : 1;
        ctx_.obs->queueDepth(node_, static_cast<int>(queue_.size()), now);
        ctx_.obs->schedulerStepBegun(node_, next_step_index_,
                                     static_cast<int>(running_.size()),
                                     prefills, now);
    }

    // Step shape, one walk for both KV layouts: a newly admitted request
    // computes and appends its prompt past any shared-prefix hit (plus
    // the first token's KV; a full-prefix hit still computes one token,
    // the attention query that emits it), a running one one decode token.
    // Paged: the walk drives the KvSpace step protocol — reads declare
    // each request's pre-append resident pages (a prefill reads only on
    // a prefix hit), appends allocate. Contiguous: no sharing, and the
    // admission-order working set is [0, resident) then
    // [resident, resident + new) — newly admitted requests hold no KV.
    StepShape shape;
    std::int64_t resident = 0, appended = 0;
    if (kv_)
        kv_->beginStep();
    for (const Active &a : running_) {
        const int fresh = a.spec.prompt_tokens - a.shared_tokens;
        const int appends = a.prefilled ? 1 : fresh + 1;
        shape.compute_tokens += a.prefilled ? 1 : std::max(fresh, 1);
        resident += a.kvTokens();
        appended += appends;
        if (kv_) {
            if (a.prefilled || a.shared_tokens > 0)
                kv_->noteRead(a.spec.id);
            kv_->noteAppend(a.spec.id, appends);
        }
    }
    if (kv_) {
        kv::KvStepPlan plan = kv_->finishStep();
        shape.kv_reads = std::move(plan.reads);
        shape.kv_writes = std::move(plan.writes);
        if (ctx_.obs) {
            // Allocator truth (witnesses only): tier occupancy from real
            // page placement, plus the gauges the contiguous layout has
            // no notion of — fragmentation, table bytes, prefix hits.
            const kv::KvGauges g = kv_->gauges();
            const std::string scope = "n" + std::to_string(node_);
            ctx_.obs->kvOccupancy(scope, g.hbm_bytes, g.host_bytes,
                                  g.csd_bytes, now);
            ctx_.obs->kvAllocator(scope, g.used_hbm, g.free_hbm,
                                  g.used_host, g.free_host, g.used_csd,
                                  g.fragmentation, g.block_table_bytes,
                                  g.prefix_hit_rate, now);
        }
    } else if (config_.kv.enabled) {
        if (resident > 0)
            shape.kv_reads.push_back({0, resident});
        shape.kv_writes.push_back({resident, resident + appended});
    }

    // Build the pass reactively into the running graph (dynamic mode),
    // with a sentinel task that re-enters the scheduler on completion.
    // Under fault injection the whole step is one revocation domain: a
    // node crash revokes it as a unit (the step's tasks form a closed
    // subgraph — buildForwardPass keeps no cross-step task references).
    if (ctx_.faults_armed) {
        step_domain_ = ctx_.graph.openDomain();
        ctx_.graph.setCurrentDomain(step_domain_);
    }
    const TaskId first = ctx_.graph.taskCount();
    const TaskId pass_done =
        builder_.buildForwardPass(shape, next_step_index_);
    const TaskId sentinel = ctx_.graph.notify(
        {this, 0}, {"srv.step", next_step_index_, node_});
    ctx_.graph.dependsOn(sentinel, pass_done);
    if (ctx_.faults_armed)
        ctx_.graph.setCurrentDomain(sim::TaskGraph::kNoDomain);
    ctx_.graph.releaseRange(first, ctx_.graph.taskCount());

    ++next_step_index_;
    step_in_flight_ = true;
    step_began_ = now;
}

void
BatchScheduler::onStepDone()
{
    const Seconds now = ctx_.sim.now();
    step_in_flight_ = false;
    if (ctx_.obs)
        ctx_.obs->schedulerStepFinished(node_, now);
    // Observed service time: the control plane's SLO predictor feeds on
    // it *before* any retirement fires, so a closed-loop client's next
    // submission already sees the updated estimate.
    if (step_time_hook_)
        step_time_hook_(node_, now - step_began_);

    // Token progress: prefill emits the first token, decode one more.
    for (Active &a : running_) {
        if (!a.prefilled) {
            a.prefilled = true;
            a.first_token = now;
            a.produced = 1;
        } else {
            ++a.produced;
        }
    }

    // Retire finished requests (stable order keeps the retire hook's
    // firing order, and so the disposition order, deterministic).
    auto finished = [](const Active &a) {
        return a.produced >= a.spec.output_tokens;
    };
    for (const Active &a : running_) {
        if (!finished(a))
            continue;
        const train::RequestRecord record = dispositionRecord(
            a.spec, node_, a.start, a.first_token, now, a.produced);
        if (ctx_.obs)
            ctx_.obs->requestRetired(node_, record.id, record.arrival,
                                     record.finish, now);
        // Paged layout: the pages come back before the hook fires, so a
        // closed-loop client's next submission sees the freed arena.
        if (kv_)
            kv_->retire(a.spec.id);
        retire_hook_(record);
    }
    running_.erase(std::remove_if(running_.begin(), running_.end(), finished),
                   running_.end());
    if (ctx_.obs)
        ctx_.obs->runningBatch(node_, static_cast<int>(running_.size()),
                               now);
    // Fully drained: the control plane's drain-before-retire signal. The
    // hook may retire this replica, but never schedules events or builds
    // tasks, so firing before maybeBeginStep (a no-op when drained) is
    // safe.
    if (idle_hook_ && running_.empty() && queue_.empty())
        idle_hook_(node_);

    maybeBeginStep();
}

std::vector<RequestSpec>
BatchScheduler::failNode()
{
    SI_ASSERT(!dead_, "failNode on an already-dead replica");
    dead_ = true;
    if (step_in_flight_) {
        ctx_.graph.revokeDomain(step_domain_);
        step_in_flight_ = false;
    }
    std::vector<RequestSpec> displaced;
    displaced.reserve(running_.size() + queue_.size());
    for (const Active &a : running_) {
        if (kv_)
            kv_->retire(a.spec.id);
        displaced.push_back(a.spec);
    }
    running_.clear();
    noteQueueDepthChange();
    for (const RequestSpec &r : queue_)
        displaced.push_back(r);
    queue_.clear();
    if (ctx_.obs) {
        const Seconds now = ctx_.sim.now();
        ctx_.obs->queueDepth(node_, 0, now);
        ctx_.obs->runningBatch(node_, 0, now);
    }
    return displaced;
}

void
BatchScheduler::revive()
{
    dead_ = false;
    maybeBeginStep();
}

void
BatchScheduler::finalize() const
{
    // The queue drained before the graph did, so the depth integral is
    // already closed: everything after the last depth change is at depth
    // zero. Fault bookkeeping (crash/repair events) may touch the depth
    // clock *after* the last task finished; the queue is empty by then,
    // so that tail contributes zero either way.
    SI_ASSERT(queue_.empty() && running_.empty() && !step_in_flight_,
              "scheduler finalized with unserved requests");
}

} // namespace smartinf::serve
