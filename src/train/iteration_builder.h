/**
 * @file
 * The per-node training iteration builder: composes the shared phase
 * primitives (train/phase_builders.h) into one server's training iteration
 * — block parameter loads, GPU compute, gradient offloads, CSD-internal
 * swaps, FPGA updates — as tasks in a SimContext's shared task graph.
 * stageIteration() (train/training_workload.h) drives one builder per node
 * in the *same* SimContext and stitches inter-node gradient-sync
 * collectives between their backward and update phases, so NIC traffic
 * contends with PCIe offload traffic in one fluid-flow model.
 */
#ifndef SMARTINF_TRAIN_ITERATION_BUILDER_H
#define SMARTINF_TRAIN_ITERATION_BUILDER_H

#include <string>
#include <utility>
#include <vector>

#include "train/phase_builders.h"

namespace smartinf::train {

/**
 * Builds one node's training iteration into a shared SimContext.
 *
 * The build is staged so callers can interpose between phases: the
 * iteration stitch hangs each block's gradient offload off that block's
 * inter-node all-reduce by adding dependencies to gradOffloadGateTask(b)
 * before the graph starts.
 */
class IterationBuilder : public PhaseBuilder, private sim::Receiver
{
  public:
    IterationBuilder(const ModelSpec &model, const TrainConfig &train,
                     const SystemConfig &system, SimContext &ctx,
                     std::string prefix = {});

    /** Build the forward phase; returns its completion task, which
     *  records forwardEnd(). */
    TaskId buildForward();
    /** Build backward + gradient offload; returns its completion task,
     *  which records backwardEnd(). */
    TaskId buildBackward(TaskId fw_done);
    /** Build the strategy-specific update phase gated on @p ready. */
    void buildUpdate(TaskId ready);

    /** Per-block task completing when the block's gradients reach host
     *  memory (wire format) — the natural anchor for gradient sync. */
    TaskId gradToHostTask(int block) const;
    /**
     * Per-block task gating the block's offload transfers: adding a
     * dependency here (before start()) holds the actual flows back — the
     * iteration stitch points it at the block's reduced
     * all-reduce bucket. For the baseline's striped offload this is a
     * barrier in front of the per-device parts; for Smart-Infinity it is
     * the single offload transfer itself.
     */
    TaskId gradOffloadGateTask(int block) const;

    /** When the last staged iteration's forward / backward phase
     *  completed on this node. */
    Seconds forwardEnd() const { return fw_end_; }
    Seconds backwardEnd() const { return bw_end_; }

  private:
    /** The argument of the "fw.done" and "bw.done" notify tasks. */
    enum Phase : uint64_t { kForwardDone, kBackwardDone };
    void onNotify(uint64_t phase) override;

    Bytes activationBytesPerBlock() const;
    bool compressed() const;
    Bytes gradWireBytesPerBlock() const;

    void tpAllReduce(TaskId after_compute, sim::TaskLabel label);
    /** Returns {gate, completion} for one block's offload (see
     *  gradOffloadGateTask). */
    std::pair<TaskId, TaskId> buildGradOffload(int block);
    void buildBaselineUpdate(TaskId ready);
    void buildSmartUpdate(TaskId ready);
    void buildCsdChain(int d, TaskId ready, double params_per_csd,
                       int num_subgroups, int aux);

    const TrainConfig &train_;
    std::vector<TaskId> grad_to_host_;
    std::vector<TaskId> grad_offload_gate_;
    Seconds fw_end_ = 0.0;
    Seconds bw_end_ = 0.0;
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_ITERATION_BUILDER_H
