#include "train/training_workload.h"

#include <algorithm>

#include "common/logging.h"
#include "dist/collective.h"
#include "train/system_builder.h"

namespace smartinf::train {

using sim::TaskGraph;
using TaskId = TaskGraph::TaskId;

TrainingWorkload::TrainingWorkload(const ModelSpec &model,
                                   const TrainConfig &train)
    : model_(model), train_(train)
{
}

void
TrainingWorkload::build(SimContext &ctx)
{
    SI_ASSERT(builders_.empty(), "TrainingWorkload::build called twice");
    if (ctx.system.num_nodes > 1) {
        buildDistributed(ctx);
        return;
    }
    builders_.push_back(std::make_unique<IterationBuilder>(
        model_, train_, ctx.system, ctx));
    fw_.push_back(builders_[0]->buildForward());
    bw_.push_back(builders_[0]->buildBackward(fw_[0]));
    builders_[0]->buildUpdate(bw_[0]);
}

void
TrainingWorkload::buildDistributed(SimContext &ctx)
{
    const int nodes = ctx.system.num_nodes;
    buildNicLinks(ctx.topo, ctx.system);

    // Every server runs the same single-node iteration, namespaced into the
    // shared topology/graph so all flows contend in one fluid-flow model.
    builders_.reserve(nodes);
    for (int i = 0; i < nodes; ++i)
        builders_.push_back(std::make_unique<IterationBuilder>(
            model_, train_, ctx.system, ctx, nodePrefix(i)));

    fw_.resize(nodes);
    bw_.resize(nodes);
    for (int i = 0; i < nodes; ++i)
        fw_[i] = builders_[i]->buildForward();
    for (int i = 0; i < nodes; ++i)
        bw_[i] = builders_[i]->buildBackward(fw_[i]);

    // Gradient sync: ring all-reduce of the dense FP32 gradients. (SmartComp
    // compresses the host->CSD wire only; inter-node reduction stays dense
    // so the data-parallel math matches the single-node run bit for bit.)
    TaskId sync_done = TaskGraph::kInvalidTask;
    if (ctx.system.overlap_grad_sync) {
        // One bucket per transformer block, gated on every node having
        // that block's gradients in host memory; the block's storage
        // offload then waits for its reduced bucket. Early blocks sync
        // while later blocks are still in backward compute.
        const Bytes bucket =
            model_.num_params / model_.num_layers * kBytesFp32;
        for (int b = 0; b < model_.num_layers; ++b) {
            std::vector<TaskId> deps(nodes);
            for (int i = 0; i < nodes; ++i)
                deps[i] = builders_[i]->gradToHostTask(b);
            const dist::CollectiveSchedule cs = dist::scheduleRingCollective(
                ctx, dist::CollectiveKind::AllReduce, nodes, bucket, deps,
                {"sync.done", b});
            for (int i = 0; i < nodes; ++i)
                ctx.graph.dependsOn(builders_[i]->gradOffloadGateTask(b),
                                    cs.done);
        }
    } else {
        // Ablation: one monolithic all-reduce strictly after backward.
        std::vector<TaskId> deps(bw_);
        const dist::CollectiveSchedule cs = dist::scheduleRingCollective(
            ctx, dist::CollectiveKind::AllReduce, nodes,
            model_.gradientBytes(), deps, {"sync.all"});
        sync_done = cs.done;
    }

    // Each node updates its full optimizer-state replica near storage,
    // gated on its own backward (whose offloads already waited for the
    // bucketed sync) plus, in the monolithic case, the global sync.
    for (int i = 0; i < nodes; ++i) {
        TaskId ready = bw_[i];
        if (sync_done != TaskGraph::kInvalidTask) {
            ready = ctx.graph.barrier({"upd.ready", i});
            ctx.graph.dependsOn(ready, bw_[i]);
            ctx.graph.dependsOn(ready, sync_done);
        }
        builders_[i]->buildUpdate(ready);
    }
}

void
TrainingWorkload::collect(const SimContext &ctx, WorkloadResult &out)
{
    // Nodes are symmetric but not lock-stepped; report the slowest node's
    // phase boundaries (the cluster advances at the straggler's pace).
    Seconds t_fw = 0.0, t_bw = 0.0;
    for (std::size_t i = 0; i < builders_.size(); ++i) {
        t_fw = std::max(t_fw, ctx.graph.finishTime(fw_[i]));
        t_bw = std::max(t_bw, ctx.graph.finishTime(bw_[i]));
    }
    const Seconds t_end = ctx.graph.makespan();
    out.phases.forward = t_fw;
    out.phases.backward = t_bw - t_fw;
    out.phases.update = t_end - t_bw;
    out.iteration_time = t_end;
}

} // namespace smartinf::train
