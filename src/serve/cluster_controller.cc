#include "serve/cluster_controller.h"

#include <algorithm>

#include "common/logging.h"
#include "ctrl/dispatch.h"
#include "obs/observation.h"
#include "train/sim_context.h"

namespace smartinf::serve {

using sim::TaskGraph;
using TaskId = TaskGraph::TaskId;

ClusterController::ClusterController(
    train::SimContext &ctx, const ServeConfig &config,
    std::vector<std::unique_ptr<InferenceBuilder>> &builders,
    std::vector<std::unique_ptr<BatchScheduler>> &schedulers)
    : ctx_(ctx), config_(config), builders_(builders),
      schedulers_(schedulers), rng_(ctrl::ctrlSeed(config.seed)),
      admission_(config.ctrl.slo), autoscaler_(config.ctrl.autoscale)
{
    SI_ASSERT(config_.ctrl.enabled,
              "ClusterController built with the control plane disabled");
}

void
ClusterController::start(int expected)
{
    expected_ = expected;
    stats_.enabled = true;

    const int nodes = static_cast<int>(schedulers_.size());
    const ctrl::AutoscaleConfig &as = config_.ctrl.autoscale;
    max_active_ = as.enabled ? std::min(as.max_replicas, nodes) : nodes;
    min_active_ =
        as.enabled ? std::clamp(as.min_replicas, 1, max_active_) : nodes;
    replicas_.assign(static_cast<std::size_t>(nodes),
                     ReplicaState::Inactive);
    for (int i = 0; i < min_active_; ++i)
        replicas_[static_cast<std::size_t>(i)] = ReplicaState::Active;
    notePeakActive();

    // The SLO predictor feeds on observed step times; the hook changes no
    // result, so it is installed whenever admission is armed.
    if (config_.ctrl.slo.enabled())
        for (auto &scheduler : schedulers_)
            scheduler->setStepTimeHook(
                [this](int, Seconds dt) { admission_.noteStepTime(dt); });

    if (as.enabled) {
        for (auto &scheduler : schedulers_)
            scheduler->setIdleHook(
                [this](int node) { onReplicaIdle(node); });
        armTick();
    }
    emitReplicas();
}

int
ClusterController::chooseReplica(const RequestSpec &request)
{
    candidates_.clear();
    loads_.clear();
    int fleet_load = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i] != ReplicaState::Active ||
            schedulers_[i]->dead())
            continue;
        const int load = schedulers_[i]->load();
        candidates_.push_back(static_cast<int>(i));
        loads_.push_back(load);
        fleet_load += load;
    }
    if (candidates_.empty())
        return -1; // whole active set crashed (fault injection only)
    if (config_.ctrl.autoscale.enabled)
        autoscaler_.sampleLoad(fleet_load,
                               static_cast<int>(candidates_.size()));
    return ctrl::pickReplica(config_.ctrl.policy, request.id, candidates_,
                             loads_, rng_);
}

ctrl::AdmissionDecision
ClusterController::admit(Seconds now, const RequestSpec &request,
                         int replica)
{
    return admission_.decide(
        now, request.arrival, request.output_tokens,
        schedulers_[static_cast<std::size_t>(replica)]->load(),
        request.deferrals);
}

void
ClusterController::noteDisposed(const train::RequestRecord &record,
                                Seconds now)
{
    ++disposed_;
    if (record.rejected) {
        if (ctx_.obs)
            ctx_.obs->ctrlDecision("reject", record.id, now);
    } else if (!record.shed && ctx_.obs &&
               config_.ctrl.slo.target_p99_s > 0.0) {
        ctx_.obs->sloAttainment(
            record.node, record.latency() <= config_.ctrl.slo.target_p99_s,
            now);
    }
}

train::CtrlStats
ClusterController::stats() const
{
    return stats_;
}

int
ClusterController::countState(ReplicaState state) const
{
    int n = 0;
    for (const ReplicaState s : replicas_)
        n += s == state ? 1 : 0;
    return n;
}

void
ClusterController::notePeakActive()
{
    stats_.peak_active_replicas = std::max(
        stats_.peak_active_replicas, countState(ReplicaState::Active));
}

void
ClusterController::emitReplicas() const
{
    if (ctx_.obs)
        ctx_.obs->ctrlReplicas(countState(ReplicaState::Active),
                               countState(ReplicaState::Warming),
                               countState(ReplicaState::Draining),
                               ctx_.sim.now());
}

void
ClusterController::onNotify(uint64_t arg)
{
    if (arg == kTick)
        onTick();
    else
        onWarmupDone(static_cast<int>(arg));
}

void
ClusterController::armTick()
{
    ctx_.sim.at(ctx_.sim.now() + config_.ctrl.autoscale.window_s,
                {this, kTick});
}

void
ClusterController::onTick()
{
    if (done())
        return; // every request disposed: let the simulation drain
    // One guaranteed load sample per window (an idle window must still
    // register as idle, or scale-down could never trigger).
    int fleet_load = 0, active = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i] != ReplicaState::Active)
            continue;
        fleet_load += schedulers_[i]->load();
        ++active;
    }
    autoscaler_.sampleLoad(fleet_load, active);
    const ctrl::ScaleAction action = autoscaler_.evaluate(
        ctx_.sim.now(), active, countState(ReplicaState::Warming));
    if (action == ctrl::ScaleAction::ScaleUp)
        scaleUp();
    else if (action == ctrl::ScaleAction::ScaleDown)
        scaleDown();
    emitReplicas();
    armTick();
}

void
ClusterController::scaleUp()
{
    // Warm up the lowest-index inactive replica: it must stream its full
    // parameter set (one warm-up pass through its builder — real flows
    // contending with the serving traffic) before it takes dispatches. A
    // draining replica is not reactivated; it retires as planned.
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (replicas_[i] != ReplicaState::Inactive)
            continue;
        const int node = static_cast<int>(i);
        replicas_[i] = ReplicaState::Warming;
        ++stats_.scale_ups;
        if (ctx_.obs)
            ctx_.obs->ctrlDecision("scale-up", node, ctx_.sim.now());
        StepShape shape;
        shape.compute_tokens = 1.0;
        const TaskId first = ctx_.graph.taskCount();
        const TaskId pass = builders_[i]->buildForwardPass(
            shape, 1000000 + warmup_seq_); // step index disjoint from the
                                           // scheduler's (labels only)
        const TaskId sentinel = ctx_.graph.notify(
            {this, i}, {"ctrl.warmup", warmup_seq_, node});
        ctx_.graph.dependsOn(sentinel, pass);
        ctx_.graph.releaseRange(first, ctx_.graph.taskCount());
        ++warmup_seq_;
        return;
    }
    // Ceiling above the fleet size and everything already active: no-op.
}

void
ClusterController::onWarmupDone(int node)
{
    replicas_[static_cast<std::size_t>(node)] = ReplicaState::Active;
    ++stats_.warmups_completed;
    notePeakActive();
    if (ctx_.obs)
        ctx_.obs->ctrlDecision("warmup-done", node, ctx_.sim.now());
    emitReplicas();
}

void
ClusterController::scaleDown()
{
    const Seconds now = ctx_.sim.now();
    // Drain the highest-index active replica (deterministic victim; the
    // autoscaler already guaranteed active > min_replicas).
    for (std::size_t i = replicas_.size(); i-- > 0;) {
        if (replicas_[i] != ReplicaState::Active)
            continue;
        const int node = static_cast<int>(i);
        replicas_[i] = ReplicaState::Draining;
        ++stats_.scale_downs;
        if (ctx_.obs)
            ctx_.obs->ctrlDecision("scale-down", node, now);
        // Graceful mirror of the crash-drain path: no new dispatches, the
        // queued + running work finishes normally, and the replica
        // retires when its scheduler reports drained.
        if (schedulers_[i]->load() == 0)
            retireReplica(node);
        return;
    }
}

void
ClusterController::onReplicaIdle(int node)
{
    if (replicas_[static_cast<std::size_t>(node)] == ReplicaState::Draining)
        retireReplica(node);
}

void
ClusterController::retireReplica(int node)
{
    replicas_[static_cast<std::size_t>(node)] = ReplicaState::Inactive;
    if (ctx_.obs)
        ctx_.obs->ctrlDecision("retire-replica", node, ctx_.sim.now());
    emitReplicas();
}

} // namespace smartinf::serve
