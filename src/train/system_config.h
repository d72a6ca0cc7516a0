/**
 * @file
 * Experiment configuration: strategy (the paper's BASE / SU / SU+O /
 * SU+O+C), device counts, GPU grade, topology shape, optimizer,
 * compression ratio, and the data-parallel scale-out shape (node count
 * and NIC link specs consumed by src/dist/).
 */
#ifndef SMARTINF_TRAIN_SYSTEM_CONFIG_H
#define SMARTINF_TRAIN_SYSTEM_CONFIG_H

#include <string>
#include <vector>

#include "common/field_walk.h"
#include "common/units.h"
#include "optim/optimizer.h"
#include "train/calibration.h"
#include "train/gpu_model.h"

namespace smartinf::train {

/** Training strategy under evaluation (paper §VII-A notation). */
enum class Strategy {
    Baseline,          ///< ZeRO-Infinity-like, software RAID0, CPU update
    SmartUpdate,       ///< SU: near-storage update, naive transfer handling
    SmartUpdateOpt,    ///< SU+O: + internal data transfer handler (§IV-B)
    SmartUpdateOptComp ///< SU+O+C: + SmartComp gradient compression (§IV-C)
};

const char *strategyName(Strategy strategy);

/** Every strategy, in declaration order (sweep axes). */
std::vector<Strategy> allStrategies();

/** Join a validate() error list into one "a; b; c" message. */
std::string joinErrors(const std::vector<std::string> &errors);

/** True for the strategies that run updates on CSDs. */
inline bool
strategyUsesCsd(Strategy strategy)
{
    return strategy != Strategy::Baseline;
}

/** Full system configuration for one experiment. */
struct SystemConfig {
    Strategy strategy = Strategy::Baseline;
    /** SSD count for the baseline RAID0, CSD count for Smart-Infinity. */
    int num_devices = 6;
    GpuGrade gpu = GpuGrade::A5000;
    int num_gpus = 1;
    /**
     * Fig 17 topology: GPUs live in the same PCIe expansion as the CSDs, so
     * model/activation traffic contends with storage traffic on the shared
     * interconnect. Multi-GPU runs use tensor parallelism.
     */
    bool congested_topology = false;
    optim::OptimizerKind optimizer = optim::OptimizerKind::Adam;
    /**
     * SmartComp wire volume as a fraction of the dense FP32 gradients (the
     * paper's c%; default 2% = top-1% selection with index+value pairs).
     */
    double compression_wire_fraction = 0.02;
    Calibration calib = Calibration::defaults();

    /** @name Multi-node data-parallel scale-out (src/dist/). @{ */
    /** Identical servers training data-parallel; 1 = the paper's testbed. */
    int num_nodes = 1;
    /** Per-direction NIC bandwidth per node (default 100 GbE). */
    BytesPerSec nic_bandwidth = GBps(12.5);
    /** Per-hop NIC/switch propagation latency. */
    Seconds nic_latency = 10e-6;
    /**
     * Bucket the gradient all-reduce per transformer block and launch each
     * bucket as soon as every node produced that block's gradients, so the
     * sync overlaps backward; false = one monolithic all-reduce after
     * backward completes (for ablating the overlap).
     */
    bool overlap_grad_sync = true;
    /** @} */

    /**
     * Check the configuration for user errors. Returns every violated
     * precondition as an actionable message ("num_devices must be >= 1,
     * got 0"); an empty vector means the config is usable. Engine
     * construction calls this and reports the first error via fatal()
     * instead of asserting deep inside construction.
     */
    std::vector<std::string> validate() const;
};

/**
 * The SystemConfig walk (common/field_walk.h), in RunSpec hash order.
 * @p training: the config drives a training run. Serving skips the
 * training-only knobs: the optimizer, the gradient compression ratio
 * (serving keys on serve.weight_wire_fraction instead) and the
 * gradient-sync NIC/overlap shape (replicas exchange no traffic). The
 * compression ratio matters only under SU+O+C and the NIC shape only
 * across nodes; validation checks both in either workload.
 */
template <typename V, FieldsOf<SystemConfig> C>
void
walkFields(V &v, C &s, bool training)
{
    const bool compressed = s.strategy == Strategy::SmartUpdateOptComp;
    const bool multi_node = s.num_nodes > 1;
    field(v, "strategy", s.strategy, true, strategyName);
    field(v, "num_devices", s.num_devices, true, {1, kUnbounded, ">= 1"});
    field(v, "gpu", s.gpu, true, gpuName);
    field(v, "num_gpus", s.num_gpus, true, {1, kUnbounded, ">= 1"});
    field(v, "congested_topology", s.congested_topology, true);
    field(v, "optimizer", s.optimizer, training, optim::optimizerName);
    field(v, "compression_wire_fraction", s.compression_wire_fraction,
          training && compressed, {kTiny, 1.0, "in (0, 1]"}, compressed);
    field(v, "num_nodes", s.num_nodes, true, {1, kUnbounded, ">= 1"});
    field(v, "nic_bandwidth", s.nic_bandwidth, training && multi_node,
          {kTiny, kUnbounded, "positive for multi-node configs"},
          multi_node);
    field(v, "nic_latency", s.nic_latency, training && multi_node,
          {0.0, kFiniteMax, "finite and >= 0"}, multi_node);
    field(v, "overlap_grad_sync", s.overlap_grad_sync,
          training && multi_node);
    v.enter("calibration", true, "calib");
    walkFields(v, s.calib);
    v.leave();
}

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_SYSTEM_CONFIG_H
