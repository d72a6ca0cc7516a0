/**
 * @file
 * Training expressed as a Workload: one steady-state data-parallel training
 * iteration (the paper's workload) on 1..N nodes. Single-node runs build
 * one IterationBuilder; multi-node runs build one per node in the shared
 * SimContext and stitch the ring all-reduce gradient sync between backward
 * and update — exactly the dataflow the engines produced before the
 * Workload API, bit for bit.
 */
#ifndef SMARTINF_TRAIN_TRAINING_WORKLOAD_H
#define SMARTINF_TRAIN_TRAINING_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "train/iteration_builder.h"
#include "train/workload.h"

namespace smartinf::train {

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
    void buildDistributed(SimContext &ctx);

    ModelSpec model_;
    TrainConfig train_;
    std::vector<std::unique_ptr<IterationBuilder>> builders_;
    std::vector<sim::TaskGraph::TaskId> fw_, bw_;
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_TRAINING_WORKLOAD_H
