/**
 * @file
 * The per-node request scheduler: an event-driven state machine that turns
 * arriving requests into batched forward-pass steps, built *reactively*
 * into the running simulation through the task graph's dynamic mode. One
 * step is one forward pass (prefill tokens of newly admitted requests +
 * one decode token per running request); when a step's tasks complete, the
 * scheduler records token progress, retires finished requests, and —
 * depending on the policy — admits queued requests before building the
 * next step. Requests complete individually (per-request output lengths,
 * so sampled mixes produce ragged batches), and every step's KV working
 * set is declared to the builder as token ranges in a StepShape, by one
 * per-request walk for both layouts. Contiguous layout (the default):
 * admission order, decode-owned KV always preceding the just-admitted
 * prefills' empty KV, so the step reads [0, resident) and writes
 * [resident, resident + new).
 *
 * Determinism: every decision happens in an event callback of the
 * deterministic simulator, on state derived only from the (seeded) request
 * stream and the spec — so request latency records are bit-identical
 * across repeated runs, thread counts, and build types. The retire hook
 * fires inside the same deterministic callback, in stable (admission)
 * order; closed-loop clients rely on this to schedule their next
 * submission reproducibly.
 *
 * The scheduler stores and counts no records: each retirement builds one
 * record (dispositionRecord) and hands it to the retire hook, the
 * workload's single disposition path, which owns the record cap, the
 * streaming aggregates, and the control-plane feed.
 *
 * Paged layout (kv.layout=paged): the scheduler additionally drives a
 * kv::KvSpace — admission creates the request's block table (and resolves
 * its shared prefix, shrinking the prefill), each step's noteRead /
 * noteAppend calls happen in the same walk, in admission order, and the
 * resulting KvStepPlan's arena token ranges are the StepShape's ranges.
 * Retirement returns the request's private pages to the allocator, so
 * ragged completions punch reusable holes into the arena.
 */
#ifndef SMARTINF_SERVE_BATCH_SCHEDULER_H
#define SMARTINF_SERVE_BATCH_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "kv/kv_space.h"
#include "serve/inference_builder.h"
#include "serve/request_stream.h"
#include "train/workload.h"

namespace smartinf::serve {

/**
 * The record of @p spec's disposition at @p finish: served on @p node
 * (admitted at @p start, first token at @p first_token, @p output_tokens
 * delivered), or turned away (node -1, every stamp the decision time, no
 * tokens; the caller marks shed/rejected). The one spec-to-record mapping
 * of the retirement and turn-away paths.
 */
train::RequestRecord dispositionRecord(const RequestSpec &spec, int node,
                                       Seconds start, Seconds first_token,
                                       Seconds finish, int output_tokens);

/**
 * Per-node batch scheduler (see file comment). Each step ends in a
 * "srv.step" notify task naming the scheduler; its argument is unused.
 */
class BatchScheduler : private sim::Receiver
{
  public:
    /** Called once per retired request, inside the retirement event
     *  callback, in stable admission order. */
    using RetireHook = std::function<void(const train::RequestRecord &)>;
    /** Called once per completed step with its simulated duration — the
     *  control plane's observed-service-time feed (SLO admission). */
    using StepTimeHook = std::function<void(int node, Seconds dt)>;
    /** Called when a step completion leaves the replica fully drained
     *  (no queue, no running batch) — the control plane's
     *  drain-before-retire signal (autoscaling). */
    using IdleHook = std::function<void(int node)>;

    /** @p node is this replica's index (stamped into the records). */
    BatchScheduler(train::SimContext &ctx, InferenceBuilder &builder,
                   const ServeConfig &config, int node);

    /** Hand a request to the scheduler at its (current) arrival time.
     *  Must be called from a simulator event at request.arrival. */
    void submit(const RequestSpec &request);

    /** Install the per-request retirement hook: the workload's one
     *  disposition path, which counts, stores, and forwards the record.
     *  Must be set before the simulation starts. */
    void setRetireHook(RetireHook hook) { retire_hook_ = std::move(hook); }

    /** Install the step-duration hook (control plane only; unset in every
     *  other run — installing it adds no events and changes no result). */
    void setStepTimeHook(StepTimeHook hook)
    {
        step_time_hook_ = std::move(hook);
    }

    /** Install the drained hook (control-plane autoscaling only). */
    void setIdleHook(IdleHook hook) { idle_hook_ = std::move(hook); }

    /** End of run: asserts every submitted request retired (the
     *  queue-depth integral is then already closed at depth zero). */
    void finalize() const;

    /** Integral of the waiting-queue depth over time. */
    double queueDepthIntegral() const { return queue_depth_integral_; }
    /** Largest instantaneous waiting-queue depth observed. */
    int peakQueueDepth() const { return peak_queue_depth_; }

    /** This node's paged-KV statistics (all-zero under the contiguous
     *  layout, where no KvSpace exists). */
    train::KvCacheStats kvStats() const;

    /** @name Fault seam (called only by fault-injecting workloads).
     *
     * Both entry points (failNode, revive) run inside deterministic
     * simulator events armed from the pre-drawn fault schedule. Fault-free
     * runs never call either (and beginStep opens no revocation domain unless
     * ctx.faults_armed), so the scheduler's fault-free behavior is
     * bit-identical to the pre-fault build.
     * @{ */
    /**
     * Whole-replica crash: the in-flight step's domain is revoked (its
     * transfer tasks' flows are pulled out of the network; resource work
     * drains as discarded no-ops), every running and queued request is
     * displaced, and resident KV is retired. Returns the displaced specs —
     * running requests first (admission order), then the queue — for the
     * workload to retry on surviving replicas. The node stays dead()
     * until revive().
     */
    std::vector<RequestSpec> failNode();
    /** Repair done: resume admission (and restart stepping if work
     *  queued up while dead — it cannot have, since dispatch skips dead
     *  replicas, but the call is harmlessly idempotent). */
    void revive();
    /** True while crashed (between failNode() and revive()). */
    bool dead() const { return dead_; }
    /** Requests on this node (queued + running) — the control plane's
     *  JSQ/P2C dispatch and autoscaling load signal. */
    int load() const
    {
        return static_cast<int>(queue_.size() + running_.size());
    }
    /** @} */

  private:
    /** A request admitted into the running batch. */
    struct Active {
        RequestSpec spec;
        Seconds start = 0.0;       ///< admission time
        Seconds first_token = 0.0; ///< set when its prefill step completes
        bool prefilled = false;
        int produced = 0; ///< tokens emitted so far
        /** Prefix tokens a KvSpace admit() shared into this request's
         *  table (0 under the contiguous layout / on a prefix miss); the
         *  prefill step skips their compute and KV writes. */
        int shared_tokens = 0;

        /** KV tokens this request holds resident (prompt + generated;
         *  nothing before its prefill step completes). */
        std::int64_t kvTokens() const
        {
            return prefilled ? std::int64_t{spec.prompt_tokens} + produced
                             : 0;
        }
    };

    void maybeBeginStep();
    void beginStep();
    /** The step sentinel fired: the in-flight step completed. */
    void onNotify(uint64_t) override { onStepDone(); }
    void onStepDone();
    void noteQueueDepthChange();

    train::SimContext &ctx_;
    InferenceBuilder &builder_;
    const ServeConfig &config_;
    int node_;
    /** Paged-layout KV state (null under the contiguous layout). */
    std::unique_ptr<kv::KvSpace> kv_;

    std::deque<RequestSpec> queue_; ///< arrived, not yet admitted
    std::vector<Active> running_;   ///< admitted, in admission order
    bool step_in_flight_ = false;
    Seconds step_began_ = 0.0; ///< begin time of the in-flight step
    int next_step_index_ = 0;

    /** @name Fault state (inert defaults in fault-free runs). @{ */
    bool dead_ = false;
    /** The in-flight step's revocation domain (kNoDomain unless
     *  ctx.faults_armed). */
    sim::TaskGraph::Domain step_domain_ = sim::TaskGraph::kNoDomain;
    /** @} */

    RetireHook retire_hook_;
    StepTimeHook step_time_hook_;
    IdleHook idle_hook_;
    double queue_depth_integral_ = 0.0;
    Seconds last_depth_change_ = 0.0;
    int peak_queue_depth_ = 0;
};

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_BATCH_SCHEDULER_H
