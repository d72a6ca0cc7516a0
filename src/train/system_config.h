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

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_SYSTEM_CONFIG_H
