#include "train/training_workload.h"

#include <algorithm>

#include "common/logging.h"
#include "dist/collective.h"
#include "train/system_builder.h"

namespace smartinf::train {

using sim::TaskGraph;
using TaskId = TaskGraph::TaskId;

NodeBuilders
makeNodeBuilders(const ModelSpec &model, const TrainConfig &train,
                 SimContext &ctx)
{
    const int nodes = ctx.system.num_nodes;
    if (nodes > 1)
        buildNicLinks(ctx.topo, ctx.system);
    // Every server runs the same single-node iteration, namespaced into the
    // shared topology/graph so all flows contend in one fluid-flow model.
    NodeBuilders builders;
    builders.reserve(nodes);
    for (int i = 0; i < nodes; ++i)
        builders.push_back(std::make_unique<IterationBuilder>(
            model, train, ctx.system, ctx, linkPrefix(i, nodes)));
    return builders;
}

void
stageIteration(SimContext &ctx, const NodeBuilders &builders)
{
    const int nodes = static_cast<int>(builders.size());
    std::vector<TaskId> fw_done(nodes), bw_done(nodes);
    for (int i = 0; i < nodes; ++i)
        fw_done[i] = builders[i]->buildForward();
    for (int i = 0; i < nodes; ++i)
        bw_done[i] = builders[i]->buildBackward(fw_done[i]);

    // Gradient sync on 2+ nodes: ring all-reduce of the dense FP32
    // gradients. (SmartComp compresses the host->CSD wire only; inter-node
    // reduction stays dense so the data-parallel math matches the
    // single-node run bit for bit.)
    const ModelSpec &model = builders[0]->model();
    TaskId sync_done = TaskGraph::kInvalidTask;
    if (nodes > 1 && ctx.system.overlap_grad_sync) {
        // One bucket per transformer block, gated on every node having
        // that block's gradients in host memory; the block's storage
        // offload then waits for its reduced bucket. Early blocks sync
        // while later blocks are still in backward compute.
        const Bytes bucket = model.num_params / model.num_layers * kBytesFp32;
        for (int b = 0; b < model.num_layers; ++b) {
            std::vector<TaskId> deps(nodes);
            for (int i = 0; i < nodes; ++i)
                deps[i] = builders[i]->gradToHostTask(b);
            const dist::CollectiveSchedule cs = dist::scheduleRingAllReduce(
                ctx, nodes, bucket, deps, {"sync.done", b});
            for (int i = 0; i < nodes; ++i)
                ctx.graph.dependsOn(builders[i]->gradOffloadGateTask(b),
                                    cs.done);
        }
    } else if (nodes > 1) {
        // Ablation: one monolithic all-reduce strictly after backward.
        const dist::CollectiveSchedule cs = dist::scheduleRingAllReduce(
            ctx, nodes, model.gradientBytes(), bw_done, {"sync.all"});
        sync_done = cs.done;
    }

    // Each node updates its full optimizer-state replica near storage,
    // gated on its own backward (whose offloads already waited for the
    // bucketed sync) plus, in the monolithic case, the global sync.
    for (int i = 0; i < nodes; ++i) {
        TaskId ready = bw_done[i];
        if (sync_done != TaskGraph::kInvalidTask) {
            ready = ctx.graph.barrier({"upd.ready", i});
            ctx.graph.dependsOn(ready, bw_done[i]);
            ctx.graph.dependsOn(ready, sync_done);
        }
        builders[i]->buildUpdate(ready);
    }
}

TrainingWorkload::TrainingWorkload(const ModelSpec &model,
                                   const TrainConfig &train)
    : model_(model), train_(train)
{
}

void
TrainingWorkload::build(SimContext &ctx)
{
    SI_ASSERT(builders_.empty(), "TrainingWorkload::build called twice");
    builders_ = makeNodeBuilders(model_, train_, ctx);
    stageIteration(ctx, builders_);
}

void
TrainingWorkload::collect(const SimContext &ctx, WorkloadResult &out)
{
    // Nodes are symmetric but not lock-stepped; report the slowest node's
    // phase boundaries (the cluster advances at the straggler's pace).
    Seconds t_fw = 0.0, t_bw = 0.0;
    for (const auto &builder : builders_) {
        t_fw = std::max(t_fw, builder->forwardEnd());
        t_bw = std::max(t_bw, builder->backwardEnd());
    }
    const Seconds t_end = ctx.graph.makespan();
    out.phases.forward = t_fw;
    out.phases.backward = t_bw - t_fw;
    out.phases.update = t_end - t_bw;
    out.iteration_time = t_end;
}

} // namespace smartinf::train
