/**
 * @file
 * Public API of the Smart-Infinity reproduction.
 *
 * Two coupled layers (see DESIGN.md):
 *  - SmartInfinityCluster — the *functional* system: N emulated SmartSSDs
 *    holding flattened parameter shards and optimizer states, FPGA-side
 *    updater/decompressor kernels (the built-in updater runs the host
 *    optimizer's own step, so both paths share one update rule), the
 *    two-thread internal transfer handler, and optional SmartComp Top-K
 *    compression. It implements nn::UpdateBackend, so any model training
 *    loop can run its optimizer steps "near storage" exactly as the
 *    paper's DeepSpeed integration does.
 *  - The *performance* layer (train::makeEngine) — the calibrated
 *    discrete-event model reproducing the paper's timing results.
 *    Re-exported here for one-stop consumption.
 *
 * Multi-node data-parallel scale-out is performance-layer only: the one
 * train::Engine extends the model across servers when num_nodes > 1, with
 * ring-collective gradient sync (dist/collective.h) over the NIC fabric.
 * Declarative sweeps over either layer live in src/exp/
 * (ExperimentBuilder, SweepRunner, the scenario registry driving the
 * smartinf_bench CLI).
 */
#ifndef SMARTINF_CORE_SMART_INFINITY_H
#define SMARTINF_CORE_SMART_INFINITY_H

#include <memory>
#include <string>
#include <vector>

#include "accel/hls_module.h"
#include "csd/csd.h"
#include "nn/trainer.h"
#include "train/engine.h"
#include "train/transfer_handler.h"

namespace smartinf {

/** Configuration of a functional Smart-Infinity cluster. Every CSD is a
 *  SmartSSD, whose numbers (csd/smartssd.h) are not settable. */
struct ClusterConfig {
    /** Number of CSDs; parameters are distributed equally (§IV-D). */
    int num_csds = 2;
    optim::OptimizerKind optimizer = optim::OptimizerKind::Adam;
    optim::Hyperparams hyperparams;
    /** Enable SmartComp gradient compression (§IV-C). */
    bool compression = false;
    /** Fraction of gradient elements kept by Top-K (wire = 2x this). */
    double keep_fraction = 0.01;
    /** Elements per subgroup/tasklet streamed through the FPGA. */
    std::size_t subgroup_elems = 1 << 14;

    /**
     * Check the configuration for user errors. Returns every violated
     * precondition as an actionable message; empty means usable. The
     * cluster constructor calls this and reports the first error via
     * fatal() instead of asserting mid-construction.
     */
    std::vector<std::string> validate() const;
};

/**
 * A functional multi-CSD Smart-Infinity deployment. Every CSD updates its
 * own shard at the same time, as the paper's devices do: initialize()
 * parks one persistent worker thread per CSD after the first, and step()
 * runs shard 0 on the calling thread while the workers run the others,
 * each through its own two-thread transfer handler with preallocated
 * device buffers. Shards are disjoint, so the result is bit-identical to
 * stepping them one after another. Thread-compatible: one step() at a
 * time.
 */
class SmartInfinityCluster final : public nn::UpdateBackend
{
  public:
    explicit SmartInfinityCluster(const ClusterConfig &config);
    ~SmartInfinityCluster() override;
    /** Workers hold the cluster's address. */
    SmartInfinityCluster(const SmartInfinityCluster &) = delete;
    SmartInfinityCluster &operator=(const SmartInfinityCluster &) = delete;

    /** @name nn::UpdateBackend @{ */
    /** Shard d holds ceil(n/num_csds) elements, or fewer where the later
     *  shards would otherwise be empty; fatal() if n < num_csds. */
    void initialize(const float *params, std::size_t n) override;
    void step(const float *grads, std::size_t n, uint64_t t) override;
    const float *masterParams() const override;
    std::size_t paramCount() const override;
    const char *backendName() const override;
    /** @} */

    int numCsds() const { return static_cast<int>(csds_.size()); }
    const csd::Csd &csd(int idx) const { return *csds_[idx]; }
    csd::Csd &csd(int idx) { return *csds_[idx]; }

    /** Shard boundaries: element range [offset, offset+len) of CSD idx. */
    std::size_t shardOffset(int idx) const;
    std::size_t shardLength(int idx) const;

    /**
     * Gradient bytes that crossed the host->storage interconnect on the
     * last step() (wire format: dense, or index+value pairs — the paper's
     * Table I "Gradients / Write" column).
     */
    double lastGradWireBytes() const { return last_wire_bytes_; }

    const ClusterConfig &config() const { return config_; }

  private:
    struct Worker;

    void requireInitialized() const;
    /** Compress (or write densely) and update shard @p d for step_. */
    void stepShard(std::size_t d);
    void startWorkers();
    void stopWorkers();

    ClusterConfig config_;
    std::vector<std::unique_ptr<csd::Csd>> csds_;
    std::vector<train::ShardLayout> layouts_;
    std::vector<std::unique_ptr<train::TransferHandler>> handlers_;
    std::vector<float> master_cache_;
    /** Workers for shards 1..num_csds-1; shard 0 runs on the caller. */
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Arguments of the step in flight, published before the release. */
    const float *step_grads_ = nullptr;
    uint64_t step_t_ = 0;
    /** Wire bytes of each shard on the last step, summed in shard order. */
    std::vector<double> shard_wire_bytes_;
    double last_wire_bytes_ = 0.0;
    bool initialized_ = false;
};

} // namespace smartinf

#endif // SMARTINF_CORE_SMART_INFINITY_H
