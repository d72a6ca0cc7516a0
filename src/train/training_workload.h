/**
 * @file
 * Training expressed as a Workload: one steady-state data-parallel training
 * iteration (the paper's workload) on 1..N nodes, built by the one
 * iteration stitch below. makeNodeBuilders() creates one IterationBuilder
 * per node in the shared SimContext; stageIteration() stages forward,
 * backward, the ring all-reduce gradient sync (2+ nodes) and the update
 * over them. fault::CheckpointedTrainingWorkload stages the same iteration
 * once per job iteration.
 */
#ifndef SMARTINF_TRAIN_TRAINING_WORKLOAD_H
#define SMARTINF_TRAIN_TRAINING_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "train/iteration_builder.h"
#include "train/workload.h"

namespace smartinf::train {

using NodeBuilders = std::vector<std::unique_ptr<IterationBuilder>>;

/**
 * One IterationBuilder per node of ctx.system, each namespaced by
 * linkPrefix(). A cluster (num_nodes > 1) gets its NIC links first.
 */
NodeBuilders makeNodeBuilders(const ModelSpec &model,
                              const TrainConfig &train, SimContext &ctx);

/**
 * Stage one training iteration over @p builders: every node's forward,
 * then every node's backward, then (2+ nodes) the ring all-reduce of the
 * dense FP32 gradients, then every node's update.
 */
void stageIteration(SimContext &ctx, const NodeBuilders &builders);

/** One steady-state training iteration on ctx.system.num_nodes nodes. */
class TrainingWorkload final : public Workload
{
  public:
    TrainingWorkload(const ModelSpec &model, const TrainConfig &train);

    std::string name() const override { return "training-iteration"; }
    WorkloadKind kind() const override { return WorkloadKind::Training; }

    void build(SimContext &ctx) override;
    void collect(const SimContext &ctx, WorkloadResult &out) override;

  private:
    ModelSpec model_;
    TrainConfig train_;
    NodeBuilders builders_;
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_TRAINING_WORKLOAD_H
