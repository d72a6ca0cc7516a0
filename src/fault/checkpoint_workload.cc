#include "fault/checkpoint_workload.h"

#include <utility>

#include "common/logging.h"
#include "obs/observation.h"
#include "train/system_config.h"

namespace smartinf::fault {

using sim::TaskGraph;
using TaskId = TaskGraph::TaskId;

CheckpointedTrainingWorkload::CheckpointedTrainingWorkload(
    const train::ModelSpec &model, const train::TrainConfig &train,
    FaultConfig fault)
    : model_(model), train_(train), fault_(std::move(fault)),
      target_(fault_.num_iterations)
{
    SI_REQUIRE(target_ > 0,
               "checkpointed training needs fault.num_iterations >= 1");
    const auto errors = fault_.validate();
    SI_REQUIRE(errors.empty(),
               "invalid FaultConfig: ", train::joinErrors(errors));
}

void
CheckpointedTrainingWorkload::build(train::SimContext &ctx)
{
    SI_ASSERT(builders_.empty(),
              "CheckpointedTrainingWorkload::build called twice");
    ctx_ = &ctx;
    const int nodes = ctx.system.num_nodes;
    builders_ = train::makeNodeBuilders(model_, train_, ctx);

    if (fault_.enabled) {
        // Arm the fault machinery (revocation domains)
        // whether or not any category draws events — the inertness contract
        // is that the machinery itself never perturbs a timestamp.
        stats_.enabled = true;
        ctx.faults_armed = true;
        links_.emplace(ctx);
        events_ = generateFaultSchedule(fault_, fault_.seed, nodes);
        for (std::size_t i = 0; i < events_.size(); ++i)
            ctx.sim.at(events_[i].time, notice(kFault, i));
    }

    // The job is reactive: each iteration is built into the running graph
    // when the previous one completes (so a crash can revoke exactly the
    // in-flight unit of work).
    ctx.sim.at(0.0, notice(kStart));
}

void
CheckpointedTrainingWorkload::onNotify(uint64_t arg)
{
    const std::size_t index = arg >> 8;
    switch (static_cast<Event>(arg & 0xff)) {
      case kStart:
        return beginIteration();
      case kFault:
        return onFault(index);
      case kRepaired:
        return beginRestore();
      case kLinkRestore:
        links_->end(events_[index]);
        if (ctx_->obs)
            ctx_->obs->recoveryAction("link-restore", events_[index].node,
                                      ctx_->sim.now());
        return;
      case kIterationDone:
        return onIterationDone();
      case kCheckpointDone:
        ckpt_in_flight_ = false;
        ckpt_domain_ = TaskGraph::kNoDomain;
        durable_iter_ = ckpt_iter_;
        ++stats_.checkpoints_written;
        if (ctx_->obs)
            ctx_->obs->recoveryAction("checkpoint-commit", ckpt_iter_,
                                      ctx_->sim.now());
        return;
      case kRestoreDone:
        dead_ = false;
        if (ctx_->obs)
            ctx_->obs->recoveryAction("restart", durable_iter_,
                                      ctx_->sim.now());
        return beginIteration();
    }
}

void
CheckpointedTrainingWorkload::beginIteration()
{
    if (dead_ || in_iteration_ || iterations_done_ >= target_)
        return;
    train::SimContext &ctx = *ctx_;
    in_iteration_ = true;

    // One revocation domain per iteration: a crash abandons the whole
    // iteration as a unit. The closing sentinel depends on every task of
    // the iteration (buildUpdate does not funnel into a single barrier),
    // which also keeps the domain a closed sub-graph.
    if (ctx.faults_armed) {
        iter_domain_ = ctx.graph.openDomain();
        ctx.graph.setCurrentDomain(iter_domain_);
    }
    const TaskId first = ctx.graph.taskCount();
    train::stageIteration(ctx, builders_);

    const TaskId sentinel = ctx.graph.notify(notice(kIterationDone),
                                             {"job.iter", iterations_done_});
    for (TaskId t = first; t < sentinel; ++t)
        ctx.graph.dependsOn(sentinel, t);
    if (ctx.faults_armed)
        ctx.graph.setCurrentDomain(TaskGraph::kNoDomain);
    ctx.graph.releaseRange(first, ctx.graph.taskCount());
}

void
CheckpointedTrainingWorkload::onIterationDone()
{
    in_iteration_ = false;
    iter_domain_ = TaskGraph::kNoDomain;
    ++iterations_done_;
    // Periodic durability: the snapshot flows overlap the next iteration
    // (they contend for the same host interconnect and media links). At
    // most one checkpoint is in flight; a slower-than-interval checkpoint
    // skips a beat instead of queueing.
    if (!ckpt_in_flight_ && fault_.checkpoint_interval > 0 &&
        iterations_done_ % fault_.checkpoint_interval == 0)
        beginCheckpoint(iterations_done_);
    beginIteration();
}

void
CheckpointedTrainingWorkload::beginCheckpoint(int snapshot_iter)
{
    train::SimContext &ctx = *ctx_;
    ckpt_in_flight_ = true;
    ckpt_iter_ = snapshot_iter;
    if (ctx.faults_armed) {
        ckpt_domain_ = ctx.graph.openDomain();
        ctx.graph.setCurrentDomain(ckpt_domain_);
    }
    const TaskId first = ctx.graph.taskCount();
    const int nodes = static_cast<int>(builders_.size());
    const int devices = ctx.system.num_devices;
    const Bytes per_device = checkpointBytes() / devices;
    std::vector<TaskId> stripes;
    stripes.reserve(static_cast<std::size_t>(nodes) * devices);
    for (int i = 0; i < nodes; ++i) {
        const TaskId to_host = builders_[i]->gpuToHost(
            checkpointBytes(), {"ckpt.save", snapshot_iter, i});
        for (int d = 0; d < devices; ++d) {
            const TaskId stripe = builders_[i]->storageWrite(
                d, per_device, {"ckpt.write", snapshot_iter, d});
            ctx.graph.dependsOn(stripe, to_host);
            stripes.push_back(stripe);
        }
    }
    // The checkpoint is durable only when its last stripe lands; a crash
    // before this task runs revokes the whole domain and the snapshot
    // never commits.
    const TaskId commit = ctx.graph.notify(notice(kCheckpointDone),
                                           {"ckpt.commit", snapshot_iter});
    ctx.graph.dependsOn(commit, stripes);
    if (ctx.faults_armed)
        ctx.graph.setCurrentDomain(TaskGraph::kNoDomain);
    ctx.graph.releaseRange(first, ctx.graph.taskCount());
}

void
CheckpointedTrainingWorkload::beginRestore()
{
    // Repair finished: read the last durable snapshot back (striped CSD
    // reads + host->GPU upload, real flows on the same links) and only
    // then resume computing. dead_ stays set until the read-back lands, so
    // a second crash inside the restore window is absorbed by the same
    // repair episode.
    train::SimContext &ctx = *ctx_;
    const TaskId first = ctx.graph.taskCount();
    const int nodes = static_cast<int>(builders_.size());
    std::vector<TaskId> loaded;
    loaded.reserve(nodes);
    for (int i = 0; i < nodes; ++i) {
        const auto [gate, join] = builders_[i]->storageReadStriped(
            checkpointBytes(), {"ckpt.load", durable_iter_, i});
        (void)gate;
        const TaskId upload = builders_[i]->hostToGpu(
            checkpointBytes(), {"ckpt.upload", durable_iter_, i});
        ctx.graph.dependsOn(upload, join);
        loaded.push_back(upload);
    }
    const TaskId resume = ctx.graph.notify(notice(kRestoreDone),
                                           {"ckpt.restart", durable_iter_});
    ctx.graph.dependsOn(resume, loaded);
    ctx.graph.releaseRange(first, ctx.graph.taskCount());
}

void
CheckpointedTrainingWorkload::onFault(std::size_t index)
{
    train::SimContext &ctx = *ctx_;
    const FaultEvent &event = events_[index];
    const Seconds now = ctx.sim.now();
    if (ctx.obs)
        ctx.obs->faultInjected(faultKindName(event.kind), event.node, now);
    switch (event.kind) {
      case FaultKind::NodeCrash: {
        if (dead_)
            break; // a second crash inside the repair/restore window
        // Synchronous data parallelism: any node's crash takes the whole
        // job down. Nothing to lose once the job drained durable-idle.
        if (!in_iteration_ && !ckpt_in_flight_ &&
            iterations_done_ >= target_)
            break;
        ++stats_.node_crashes;
        if (in_iteration_) {
            ctx.graph.revokeDomain(iter_domain_);
            in_iteration_ = false;
            iter_domain_ = TaskGraph::kNoDomain;
        }
        if (ckpt_in_flight_) {
            ctx.graph.revokeDomain(ckpt_domain_);
            ckpt_in_flight_ = false;
            ckpt_domain_ = TaskGraph::kNoDomain;
        }
        dead_ = true;
        ++stats_.restarts;
        stats_.iterations_replayed += iterations_done_ - durable_iter_;
        iterations_done_ = durable_iter_;
        ctx.sim.at(now + event.duration, notice(kRepaired));
        break;
      }
      case FaultKind::LinkDegrade: {
        ++stats_.link_degrades;
        links_->begin(event);
        ctx.sim.at(now + event.duration, notice(kLinkRestore, index));
        break;
      }
    }
}

void
CheckpointedTrainingWorkload::collect(const train::SimContext &ctx,
                                      train::WorkloadResult &out)
{
    SI_ASSERT(iterations_done_ >= target_,
              "checkpointed training job did not complete");
    SI_ASSERT(!in_iteration_ && !ckpt_in_flight_ && !dead_,
              "checkpointed training drained with work in flight");
    // The job's makespan, including every checkpoint, repair, read-back
    // and replayed iteration. Phase split is per-iteration and not
    // meaningful for a multi-iteration job.
    out.iteration_time = ctx.graph.makespan();
    out.fault = stats_;
}

} // namespace smartinf::fault
