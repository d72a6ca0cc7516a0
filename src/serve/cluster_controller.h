/**
 * @file
 * The serve-layer composition of the src/ctrl/ control plane: one
 * ClusterController per InferenceWorkload owns the fifth-stream Rng, the
 * replica-state registry (active / warming / draining / inactive), the SLO
 * admission estimator, and the autoscale controller, and wires them to the
 * per-replica BatchSchedulers and InferenceBuilders. The pure decision
 * logic lives below serve/ (src/ctrl/ — unit-testable without a
 * simulator); everything that touches the simulator — scheduling ticks,
 * building warm-up passes, reading queue depths — lives here.
 *
 * Determinism: every method runs either pre-sim (start()) or inside a
 * deterministic event callback (dispatch events, scheduler completions,
 * autoscale ticks), and all randomness comes from the one Rng(ctrlSeed)
 * consumed in that deterministic order. The controller only exists when
 * config.ctrl.enabled — disabled runs construct nothing and stay
 * byte-identical to the pre-control-plane build.
 */
#ifndef SMARTINF_SERVE_CLUSTER_CONTROLLER_H
#define SMARTINF_SERVE_CLUSTER_CONTROLLER_H

#include <memory>
#include <vector>

#include "common/random.h"
#include "ctrl/admission.h"
#include "ctrl/autoscaler.h"
#include "serve/batch_scheduler.h"

namespace smartinf::serve {

/**
 * The control plane of one serving fleet (see file comment). Its two
 * typed events name the controller: the autoscale tick carries kTick, and
 * the "ctrl.warmup" notify task that closes a warm-up pass carries the
 * warming replica's index.
 */
class ClusterController : private sim::Receiver
{
  public:
    ClusterController(train::SimContext &ctx, const ServeConfig &config,
                      std::vector<std::unique_ptr<InferenceBuilder>> &builders,
                      std::vector<std::unique_ptr<BatchScheduler>> &schedulers);

    /**
     * Pre-sim setup, called from InferenceWorkload::build() after the
     * schedulers exist: activates the initial replica set, installs the
     * step-time / idle hooks, and arms the first autoscale tick. @p expected is the total number of requests
     * the run will dispose (ticks stop re-arming once all are accounted
     * for).
     */
    void start(int expected);

    /**
     * Pick a replica for @p request among the active, live replicas
     * (dispatch policy + fifth-stream draws). Returns -1 when no replica
     * is eligible (every active replica crashed — only reachable under
     * fault injection, where the caller backs off and retries).
     */
    int chooseReplica(const RequestSpec &request);

    /** SLO admission verdict for @p request joining replica @p replica
     *  now. Admit when admission control is off or unobserved. */
    ctrl::AdmissionDecision admit(Seconds now, const RequestSpec &request,
                                  int replica);

    /** One request was disposed (served, shed, or rejected) at @p now:
     *  counts it toward tick termination, emits the reject instant, and
     *  reports a served request's SLO attainment to the observer. */
    void noteDisposed(const train::RequestRecord &record, Seconds now);

    /** Control-plane counters for WorkloadResult. The workload fills the
     *  disposition counts (rejected, deferrals) from its streaming
     *  aggregates. */
    train::CtrlStats stats() const;

  private:
    enum class ReplicaState { Inactive, Warming, Active, Draining };

    /** The argument of the autoscale tick (any other is a replica). */
    static constexpr uint64_t kTick = ~uint64_t{0};
    void onNotify(uint64_t arg) override;
    void armTick();
    void onTick();
    void scaleUp();
    void scaleDown();
    void retireReplica(int node);
    void onWarmupDone(int node);
    void onReplicaIdle(int node);
    int countState(ReplicaState state) const;
    void notePeakActive();
    void emitReplicas() const;
    bool done() const { return disposed_ >= expected_; }

    train::SimContext &ctx_;
    const ServeConfig &config_;
    std::vector<std::unique_ptr<InferenceBuilder>> &builders_;
    std::vector<std::unique_ptr<BatchScheduler>> &schedulers_;

    Rng rng_; ///< the fifth derived stream, Rng(ctrlSeed(seed))
    ctrl::SloAdmission admission_;
    ctrl::Autoscaler autoscaler_;
    std::vector<ReplicaState> replicas_;
    int max_active_ = 1; ///< autoscale ceiling clamped to the fleet size
    int min_active_ = 1; ///< autoscale floor clamped to the fleet size
    int warmup_seq_ = 0; ///< distinct step indices for warm-up passes

    int expected_ = 0; ///< requests this run must dispose
    int disposed_ = 0; ///< served + rejected + shed so far
    train::CtrlStats stats_;

    /** Scratch for chooseReplica (avoids per-dispatch allocation). */
    std::vector<int> candidates_, loads_;
};

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_CLUSTER_CONTROLLER_H
