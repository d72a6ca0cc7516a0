/**
 * @file
 * The storage-offloaded engines. An Engine models one system shape (the
 * ZeRO-Infinity RAID0 baseline or a Smart-Infinity CSD configuration,
 * single- or multi-node) and executes *workloads* on it: run(Workload&) is
 * the single execution entry point — it owns the SimContext lifecycle
 * (build, simulate, collect) for any workload. Training is one such
 * workload (TrainingWorkload); runIteration() is the training shorthand.
 *
 * One concrete Engine covers every strategy and node count; the variants
 * differ only in SystemConfig data. Strategy::Baseline reproduces the
 * ZeRO-Infinity dataflow (Fig 1): block-wise FW/BW with gradient offload to
 * a software RAID0, then a CPU update phase streaming optimizer states over
 * the shared interconnect. The Smart-Infinity strategies (Fig 4/6) run
 * per-CSD near-storage updates over internal P2P links, with the naive or
 * optimized transfer handler (Fig 5) and optional SmartComp compression.
 * num_nodes > 1 builds a data-parallel cluster of identical servers into
 * the same simulation; TrainingWorkload stitches the ring all-reduce.
 *
 * One workload is expressed as a task graph of compute jobs (GPU, CPU,
 * FPGA) and fluid flows (PCIe links); overlap and contention fall out of
 * the dependency structure and the max-min flow model.
 */
#ifndef SMARTINF_TRAIN_ENGINE_H
#define SMARTINF_TRAIN_ENGINE_H

#include <memory>
#include <string>
#include <vector>

#include "train/model_spec.h"
#include "train/system_config.h"
#include "train/traffic_ledger.h"
#include "train/workload.h"

namespace smartinf::train {

/**
 * Result of simulating one training iteration — the training-era name for
 * a WorkloadResult (phases populated, request records empty).
 */
using IterationResult = WorkloadResult;

/** The engine for one system shape (strategy, devices, nodes). */
class Engine
{
  public:
    Engine(const ModelSpec &model, const TrainConfig &train,
           const SystemConfig &system);

    /**
     * THE execution entry point: build @p workload into a fresh
     * SimContext, run the simulator until it drains, and collect the
     * result. Deterministic: a pure function of (workload, engine
     * config).
     */
    WorkloadResult run(Workload &workload);

    /**
     * Simulate one steady-state training iteration — shorthand for
     * run(TrainingWorkload) with this engine's model and train config.
     * Deterministic.
     */
    IterationResult runIteration();

    /**
     * engineDisplayName(strategy), suffixed " x<N> nodes" when
     * num_nodes > 1 (RunRecord "engine" labels, trace run labels).
     */
    std::string name() const;

    const ModelSpec &model() const { return model_; }
    const SystemConfig &system() const { return system_; }
    const TrainConfig &train() const { return train_; }

  private:
    ModelSpec model_;
    TrainConfig train_;
    SystemConfig system_;
};

/** Human-readable single-node engine name for @p strategy (bench labels). */
std::string engineDisplayName(Strategy strategy);

/**
 * The engine factory: one Engine for any strategy and node count (the node
 * count alone selects the scale-out path).
 */
std::unique_ptr<Engine> makeEngine(const ModelSpec &model,
                                   const TrainConfig &train,
                                   const SystemConfig &system);

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_ENGINE_H
