/**
 * @file
 * The reusable per-node phase-builder substrate, split out of the training
 * iteration builder so any workload can compose the same hardware model.
 * A PhaseBuilder owns one node's simulated resources (GPU, host CPU, FPGA
 * kernel engines, CSD DMA queues), its link routes through the shared
 * topology, and the phase primitives every workload is made of: parameter
 * fetch (from host memory or striped/owner-device storage), block compute,
 * and storage offload. train::IterationBuilder composes them into a
 * training iteration; serve::InferenceBuilder composes them into
 * prefill/decode forward passes with layer-wise parameter streaming.
 *
 * Link and resource names are prefixed with @p prefix ("" for single-node
 * runs, "n3." for node 3 of a cluster), so any number of builders coexist
 * in one topology.
 */
#ifndef SMARTINF_TRAIN_PHASE_BUILDERS_H
#define SMARTINF_TRAIN_PHASE_BUILDERS_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/resource.h"
#include "train/model_spec.h"
#include "train/sim_context.h"

namespace smartinf::train {

/** Shared per-node substrate + phase primitives (see file comment). */
class PhaseBuilder
{
  public:
    using TaskId = sim::TaskGraph::TaskId;

    /** Builds the node's links, routes and resources into @p ctx. */
    PhaseBuilder(const ModelSpec &model, const SystemConfig &system,
                 SimContext &ctx, std::string prefix = {});
    /** Transfer tasks point at this builder's routes, so it never moves. */
    PhaseBuilder(const PhaseBuilder &) = delete;
    PhaseBuilder &operator=(const PhaseBuilder &) = delete;

    /** @name Phase primitives. @{ */
    /** Host memory -> GPU transfer (parameter/activation loads). */
    TaskId hostToGpu(Bytes bytes, sim::TaskLabel label);
    /** GPU -> host memory transfer (activations, gradients). */
    TaskId gpuToHost(Bytes bytes, sim::TaskLabel label);
    /** GPU compute of @p work FLOPs (serialized on the node's GPU). */
    TaskId gpuCompute(Flops work, sim::TaskLabel label);
    /** Read @p bytes from device @p d's media into host memory. */
    TaskId storageRead(int d, Bytes bytes, sim::TaskLabel label);
    /** Write @p bytes from host memory to device @p d's media. */
    TaskId storageWrite(int d, Bytes bytes, sim::TaskLabel label);
    /**
     * RAID0-striped read of @p bytes (1/D per device, all devices in
     * parallel) into host memory. Returns {gate, join}: the per-device
     * stripes hang off the gate barrier (attach extra dependencies there)
     * and the join barrier completes when every stripe landed.
     */
    std::pair<TaskId, TaskId> storageReadStriped(Bytes bytes,
                                                 sim::TaskLabel label);
    /** @} */

    const ModelSpec &model() const { return model_; }
    const SystemConfig &system() const { return system_; }
    SimContext &ctx() { return ctx_; }

    /** Parameters per transformer block (the offload granularity). */
    double paramsPerBlock() const
    {
        return model_.num_params / model_.num_layers;
    }

    /** The GPU resource's work rate (FLOP/s), for converting byte-rate
     *  calibrations into compute work. */
    double gpuRate() const { return gpu_->rate(); }

  protected:
    /** Internal P2P transfer as work (seconds) on CSD @p d's DMA engine. */
    TaskId internalTransfer(int d, Bytes bytes, BytesPerSec p2p_rate,
                            BytesPerSec media_rate, sim::TaskLabel label);

    /** @name Routes, resolved once at construction. @{ */
    const ResolvedRoute &gpuDown() const { return gpu_down_; }
    const ResolvedRoute &gpuUp() const { return gpu_up_; }
    const ResolvedRoute &ssdWriteRoute(int d) const { return ssd_write_[d]; }
    const ResolvedRoute &ssdReadRoute(int d) const { return ssd_read_[d]; }
    /** The tensor-parallel fabric (congested multi-GPU nodes only). */
    const ResolvedRoute &tpFabric() const { return tp_fabric_; }
    /** @} */

    const ModelSpec &model_;
    const SystemConfig &system_;
    SimContext &ctx_;
    std::string prefix_;
    std::unique_ptr<sim::Resource> gpu_;
    std::unique_ptr<sim::Resource> cpu_;
    std::vector<std::unique_ptr<sim::Resource>> fpga_;
    std::vector<std::unique_ptr<sim::Resource>> dma_;

  private:
    std::string pfx(const std::string &name) const { return prefix_ + name; }
    net::Link *link(const std::string &name)
    {
        return &ctx_.topo.link(pfx(name));
    }
    void resolveRoutes();
    void buildResources();

    ResolvedRoute gpu_down_;
    ResolvedRoute gpu_up_;
    ResolvedRoute tp_fabric_;
    std::vector<ResolvedRoute> ssd_write_;
    std::vector<ResolvedRoute> ssd_read_;
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_PHASE_BUILDERS_H
